package lint

import (
	"fmt"
	"go/types"
	"sort"
)

// The points-to engine's golden tests (pointsto_test.go) query cells
// through these; the analyzers walk the graph directly.

// PointsTo returns the objects a cell may point to, sorted by position.
func (s *SSA) PointsTo(n NodeID) []NodeID {
	if n == 0 {
		return nil
	}
	out := make([]nodeID, 0, len(s.pt.node(n).pts))
	for o := range s.pt.node(n).pts {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return s.pt.node(out[i]).pos < s.pt.node(out[j]).pos })
	return out
}

// DescribeNode renders a cell for the engine tests.
func (s *SSA) DescribeNode(n NodeID) string {
	if n == 0 {
		return "<none>"
	}
	pn := s.pt.node(n)
	switch pn.kind {
	case nkVar:
		return fmt.Sprintf("var %s", pn.obj.Name())
	case nkField:
		return fmt.Sprintf("%s.%s", s.DescribeNode(pn.parent), pn.field)
	case nkFunc:
		return "func " + pn.fn.Name
	case nkAlloc:
		if pn.typ != nil {
			return "alloc " + pn.typ.String()
		}
		return "alloc"
	case nkBox:
		if pn.typ != nil {
			return "box " + pn.typ.String()
		}
		return "box"
	}
	return "temp"
}

// PointsToAnyVar reports whether cell n's points-to set contains the cell
// of variable v (i.e. n may alias &v).
func (s *SSA) PointsToAnyVar(n NodeID, v types.Object) bool {
	vn := s.VarNode(v)
	if vn == 0 || n == 0 {
		return false
	}
	return s.pt.node(n).pts[vn]
}
