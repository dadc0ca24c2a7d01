package lint

// Andersen-style points-to analysis over the SSA-lite form (ssa.go).
//
// The model is the classic inclusion-based one, specialized the way
// x/tools' pointer package specializes it for Go:
//
//   - Every abstract memory cell is a node: variables, allocation sites,
//     struct fields, temporaries. An allocation-site node doubles as the
//     cell holding the allocated value, so *p for p ∈ {obj} reads obj's
//     cell directly.
//   - A cell of pointer-shaped type (pointer, slice, map, chan, func,
//     interface) holds a points-to set of object nodes. A cell of struct
//     type holds no set of its own; its state lives in per-field child
//     nodes keyed (parent, field name). Slices/maps/chans collapse their
//     elements into $elem/$key pseudo-fields of the backing object.
//   - Constraints are the usual four: address-of (pts(n) ∋ obj), copy
//     (pts(dst) ⊇ pts(src)), and field load/store, which are "complex"
//     constraints re-fired as the base cell's points-to set grows.
//   - Struct assignment expands field-wise (copyValue); assignment into an
//     interface-typed cell from a struct-shaped source materializes a box
//     object, which is how shardsafe v2 sees through interface laundering.
//
// The solver is a monotone worklist over these constraints; per-constraint
// done-sets make re-solving after new call edges (ssa.go's dynamic-callee
// fixpoint) incremental. The analysis is flow- and context-insensitive:
// one cell per variable regardless of program point or call chain. That
// over-approximates — a set can contain objects no execution stores there
// — which is the right direction for the invariants built on it (aliasing
// that *may* exist must be reported); the caveats are documented in
// DESIGN.md §9.

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// NodeID names one cell in the points-to graph; 0 is "no node".
type NodeID int32

// nodeID is the internal spelling used throughout the lowering.
type nodeID = NodeID

// Pseudo-field names for collapsed container state. The empty name is
// "the object's own cell" (the target of a plain pointer dereference).
const (
	fieldDeref = ""
	fieldElem  = "$elem"
	fieldKey   = "$key"
)

type nodeKind uint8

const (
	nkTemp  nodeKind = iota
	nkVar            // a source variable (also an object when its address is taken)
	nkAlloc          // an allocation site: new/make/composite literal/append growth
	nkField          // a field cell of a parent node
	nkFunc           // a function object
	nkBox            // an interface box holding a struct copy
)

func (k nodeKind) String() string {
	switch k {
	case nkVar:
		return "var"
	case nkAlloc:
		return "alloc"
	case nkField:
		return "field"
	case nkFunc:
		return "func"
	case nkBox:
		return "box"
	}
	return "temp"
}

type ptNode struct {
	kind   nodeKind
	typ    types.Type
	pos    token.Pos
	obj    *types.Var // nkVar
	fn     *SSAFunc   // nkFunc
	parent nodeID     // nkField
	field  string     // nkField

	pts     map[nodeID]bool
	copyTo  []nodeID
	complex []*ptConstraint
}

type ptConstraintKind uint8

const (
	ckLoad ptConstraintKind = iota
	ckStore
	ckFieldAddr
)

// ptConstraint is one complex constraint attached to a base cell: as
// objects join pts(base), the constraint applies once per object.
type ptConstraint struct {
	kind  ptConstraintKind
	other nodeID // load: destination; store: source; fieldAddr: destination
	field string
	typ   types.Type
	done  map[nodeID]bool
}

// ptGraph is the constraint graph plus its worklist solver.
type ptGraph struct {
	ssa   *SSA
	nodes []ptNode // nodes[0] unused; NodeID indexes directly

	vars   map[*types.Var]nodeID
	fields map[fieldKeyT]nodeID
	edges  map[[2]nodeID]bool

	work   []nodeID
	inWork map[nodeID]bool
}

type fieldKeyT struct {
	parent nodeID
	name   string
}

func newPTGraph(s *SSA) *ptGraph {
	return &ptGraph{
		ssa:    s,
		nodes:  make([]ptNode, 1),
		vars:   make(map[*types.Var]nodeID),
		fields: make(map[fieldKeyT]nodeID),
		edges:  make(map[[2]nodeID]bool),
		inWork: make(map[nodeID]bool),
	}
}

func (g *ptGraph) newNode(n ptNode) nodeID {
	g.nodes = append(g.nodes, n)
	return nodeID(len(g.nodes) - 1)
}

func (g *ptGraph) node(id nodeID) *ptNode { return &g.nodes[id] }

// varNode returns the cell for a source variable (parameters, results,
// locals, globals), created on first use.
func (g *ptGraph) varNode(v *types.Var) nodeID {
	if v == nil {
		return 0
	}
	if id, ok := g.vars[v]; ok {
		return id
	}
	id := g.newNode(ptNode{kind: nkVar, typ: v.Type(), pos: v.Pos(), obj: v})
	g.vars[v] = id
	return id
}

// fieldNode returns the child cell for parent's named field.
func (g *ptGraph) fieldNode(parent nodeID, name string, typ types.Type) nodeID {
	if parent == 0 {
		return 0
	}
	k := fieldKeyT{parent, name}
	if id, ok := g.fields[k]; ok {
		return id
	}
	id := g.newNode(ptNode{kind: nkField, typ: typ, pos: g.node(parent).pos, parent: parent, field: name})
	g.fields[k] = id
	return id
}

func (g *ptGraph) allocNode(typ types.Type, pos token.Pos) nodeID {
	return g.newNode(ptNode{kind: nkAlloc, typ: typ, pos: pos})
}

func (g *ptGraph) tempNode(typ types.Type, pos token.Pos) nodeID {
	return g.newNode(ptNode{kind: nkTemp, typ: typ, pos: pos})
}

func (g *ptGraph) funcNode(fn *SSAFunc) nodeID {
	var typ types.Type
	if fn.Sig != nil {
		typ = fn.Sig
	}
	return g.newNode(ptNode{kind: nkFunc, typ: typ, pos: fn.Pos, fn: fn})
}

func (g *ptGraph) push(id nodeID) {
	if id == 0 || g.inWork[id] {
		return
	}
	g.inWork[id] = true
	g.work = append(g.work, id)
}

// addAddr records pts(dst) ∋ obj.
func (g *ptGraph) addAddr(dst, obj nodeID) {
	if dst == 0 || obj == 0 {
		return
	}
	n := g.node(dst)
	if n.pts == nil {
		n.pts = make(map[nodeID]bool)
	}
	if !n.pts[obj] {
		n.pts[obj] = true
		g.push(dst)
	}
}

// addCopy records pts(dst) ⊇ pts(src) and propagates the current set.
func (g *ptGraph) addCopy(dst, src nodeID) {
	if dst == 0 || src == 0 || dst == src {
		return
	}
	e := [2]nodeID{src, dst}
	if g.edges[e] {
		return
	}
	g.edges[e] = true
	sn := g.node(src)
	sn.copyTo = append(sn.copyTo, dst)
	if g.unionInto(dst, src) {
		g.push(dst)
	}
}

func (g *ptGraph) unionInto(dst, src nodeID) bool {
	sp := g.node(src).pts
	if len(sp) == 0 {
		return false
	}
	dn := g.node(dst)
	if dn.pts == nil {
		dn.pts = make(map[nodeID]bool)
	}
	changed := false
	for o := range sp {
		if !dn.pts[o] {
			dn.pts[o] = true
			changed = true
		}
	}
	return changed
}

// copyValue assigns src's value to dst at static type typ: a plain copy
// edge for pointer-shaped values, a field-wise expansion for structs and
// arrays, and interface boxing when a struct-shaped value meets an
// interface-typed destination.
func (g *ptGraph) copyValue(dst, src nodeID, typ types.Type) {
	if dst == 0 || src == 0 || dst == src {
		return
	}
	if typ == nil {
		typ = g.node(src).typ
	}
	if typ == nil {
		typ = g.node(dst).typ
	}
	if typ == nil {
		g.addCopy(dst, src)
		return
	}
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !carriesPointers(f.Type()) {
				continue
			}
			g.copyValue(g.fieldNode(dst, f.Name(), f.Type()), g.fieldNode(src, f.Name(), f.Type()), f.Type())
		}
	case *types.Array:
		if carriesPointers(u.Elem()) {
			g.copyValue(g.fieldNode(dst, fieldElem, u.Elem()), g.fieldNode(src, fieldElem, u.Elem()), u.Elem())
		}
	case *types.Interface:
		st := g.node(src).typ
		if st != nil && !types.IsInterface(st.Underlying()) {
			switch st.Underlying().(type) {
			case *types.Struct, *types.Array:
				// Boxing copies the value into a fresh heap object; the
				// interface cell points at the box.
				box := g.newNode(ptNode{kind: nkBox, typ: st, pos: g.node(src).pos})
				g.copyValue(box, src, st)
				g.addAddr(dst, box)
				return
			case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
				// A pointer-shaped value shares the interface word — no
				// allocation — but the interface erases its static type.
				// Record a typed marker alongside the copy edge so
				// reachability walks can still expand the concrete type
				// even when the source cell's set is empty (e.g. a
				// parameter of an entry-point function).
				marker := g.newNode(ptNode{kind: nkBox, typ: st, pos: g.node(src).pos})
				g.addCopy(marker, src)
				g.addAddr(dst, marker)
				// The direct copy below keeps the pointee objects flowing
				// too, so loads after a type assertion stay precise.
			}
		}
		g.addCopy(dst, src)
	case *types.Basic:
		// Scalars and strings carry no pointers the analyses track.
	default:
		g.addCopy(dst, src)
	}
}

// carriesPointers reports whether a value of type t can hold anything the
// points-to analysis tracks (pruning scalar fields keeps the graph small).
func carriesPointers(t types.Type) bool {
	return carriesPointersDepth(t, 0)
}

func carriesPointersDepth(t types.Type, depth int) bool {
	if t == nil || depth > 12 {
		return true // unknown: assume yes
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesPointersDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesPointersDepth(u.Elem(), depth+1)
	}
	return true
}

// load returns a fresh cell receiving base.field (or *base when field is
// fieldDeref) at static type typ.
func (g *ptGraph) load(base nodeID, field string, typ types.Type, pos token.Pos) nodeID {
	dst := g.tempNode(typ, pos)
	if base == 0 {
		return dst
	}
	g.addConstraint(base, &ptConstraint{kind: ckLoad, other: dst, field: field, typ: typ})
	return dst
}

// store records base.field = src (or *base = src when field is fieldDeref).
func (g *ptGraph) store(base nodeID, field string, src nodeID, typ types.Type) {
	if base == 0 || src == 0 {
		return
	}
	g.addConstraint(base, &ptConstraint{kind: ckStore, other: src, field: field, typ: typ})
}

// addFieldAddr records pts(dst) ∋ obj.field for every obj in pts(base) —
// the lowering of &p.f and &s[i].
func (g *ptGraph) addFieldAddr(dst, base nodeID, field string, typ types.Type) {
	if base == 0 || dst == 0 {
		return
	}
	g.addConstraint(base, &ptConstraint{kind: ckFieldAddr, other: dst, field: field, typ: typ})
}

func (g *ptGraph) addConstraint(base nodeID, c *ptConstraint) {
	c.done = make(map[nodeID]bool)
	n := g.node(base)
	n.complex = append(n.complex, c)
	if len(n.pts) > 0 {
		g.push(base)
	}
}

// ensureObjFor gives cell n at least one object of type typ to stand for
// its storage (used for variadic parameter slices built by the runtime).
func (g *ptGraph) ensureObjFor(n nodeID, typ types.Type) {
	if n == 0 {
		return
	}
	if len(g.node(n).pts) == 0 {
		g.addAddr(n, g.allocNode(typ, g.node(n).pos))
	}
}

// seedExternal marks a call result that came from outside the analyzed
// packages. The engine does not model external bodies; empty sets are
// instead completed at query time by the virtual-object expansion
// (reachability walks), so no objects are materialized here.
func (g *ptGraph) seedExternal(nodeID, types.Type, token.Pos) {}

// funcsIn returns the lowered functions a cell may point to, for dynamic
// call resolution.
func (g *ptGraph) funcsIn(n nodeID) []*SSAFunc {
	if n == 0 {
		return nil
	}
	var out []*SSAFunc
	for o := range g.node(n).pts {
		if fn := g.node(o).fn; fn != nil {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// solve runs the worklist to a fixed point. It may be called repeatedly;
// per-constraint done-sets and the edge index make re-solving after new
// call links incremental.
func (g *ptGraph) solve() {
	for id := nodeID(1); int(id) < len(g.nodes); id++ {
		if len(g.node(id).pts) > 0 && (len(g.node(id).complex) > 0 || len(g.node(id).copyTo) > 0) {
			g.push(id)
		}
	}
	for len(g.work) > 0 {
		id := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.inWork[id] = false

		// Snapshot: applying constraints can append nodes (reallocating
		// the backing array) and grow this node's own sets.
		n := g.node(id)
		objs := make([]nodeID, 0, len(n.pts))
		for o := range n.pts {
			objs = append(objs, o)
		}
		cons := n.complex
		for _, c := range cons {
			for _, o := range objs {
				if c.done[o] {
					continue
				}
				c.done[o] = true
				g.applyConstraint(c, o)
			}
		}
		copies := g.node(id).copyTo
		for _, dst := range copies {
			if g.unionInto(dst, id) {
				g.push(dst)
			}
		}
		// New objects may have joined while constraints ran; requeue.
		if len(g.node(id).pts) > len(objs) {
			g.push(id)
		}
	}
}

func (g *ptGraph) applyConstraint(c *ptConstraint, obj nodeID) {
	target := obj
	if c.field != fieldDeref {
		target = g.fieldNode(obj, c.field, c.typ)
	}
	switch c.kind {
	case ckLoad:
		g.copyValue(c.other, target, c.typ)
	case ckStore:
		g.copyValue(target, c.other, c.typ)
	case ckFieldAddr:
		g.addAddr(c.other, target)
	}
}

// --- public query API (engine golden tests, analyzer layers) ---

// VarNode returns the cell for a source variable, or 0 when obj is not a
// variable the engine has seen.
func (s *SSA) VarNode(obj types.Object) NodeID {
	v, ok := obj.(*types.Var)
	if !ok {
		return 0
	}
	if id, ok := s.pt.vars[v]; ok {
		return id
	}
	return 0
}

// FieldOf returns the cell for parent's named field ($elem/$key address
// container state), or 0.
func (s *SSA) FieldOf(parent NodeID, name string) NodeID {
	if parent == 0 {
		return 0
	}
	if id, ok := s.pt.fields[fieldKeyT{parent, name}]; ok {
		return id
	}
	return 0
}

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

// NodeType returns the static type recorded for a cell (may be nil).
func (s *SSA) NodeType(n NodeID) types.Type {
	if n == 0 {
		return nil
	}
	return s.pt.node(n).typ
}

// NodePos returns the source position recorded for a cell.
func (s *SSA) NodePos(n NodeID) token.Pos {
	if n == 0 {
		return token.NoPos
	}
	return s.pt.node(n).pos
}

// DescribeNode renders a cell for diagnostics and engine tests.
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

// --- reachability (shardsafe v2) ---

// reachStep is one frontier entry of the object-graph walk: either a real
// graph cell (id != 0) or a virtual cell standing in for storage the
// engine has no objects for (typ set, id == 0).
type reachStep struct {
	id   nodeID
	typ  types.Type
	path string
}

// ReachableBanned walks everything reachable from root — points-to
// targets, struct fields, container elements, closure captures — and
// returns the display name of the first sending-side kernel object
// (*sim.Proc/Kernel/Shard/ShardGroup) it can reach, with the access path,
// or ok=false.
//
// Cells the solver has no objects for (external call results, fields of
// opaque values) are expanded *virtually* from their static types, one
// virtual cell per type, so an empty points-to set never hides a banned
// edge: the walk is at least as strong as the purely type-based v1 check.
//
// Within sim-declared structs, only fields whose types mention neither a
// sim-declared named type nor a func type are traversed: kernel handles
// like Future deliberately carry a back-pointer to their kernel, and
// holding the handle is the sanctioned API — the walk follows the
// payload (Future.val) but not the plumbing (Future.k, waiters, timers).
func (s *SSA) ReachableBanned(root NodeID, rootName string) (name, path string, ok bool) {
	if root == 0 {
		return "", "", false
	}
	g := s.pt
	visited := map[nodeID]bool{}
	virtVisited := map[string]bool{}
	queue := []reachStep{{id: root, typ: g.node(root).typ, path: rootName}}
	const maxSteps = 100000
	for steps := 0; len(queue) > 0 && steps < maxSteps; steps++ {
		st := queue[0]
		queue = queue[1:]

		t := st.typ
		if st.id != 0 {
			if visited[st.id] {
				continue
			}
			visited[st.id] = true
			if nt := g.node(st.id).typ; nt != nil {
				t = nt
			}
		} else {
			key := t.String()
			if virtVisited[key] {
				continue
			}
			virtVisited[key] = true
		}
		if st.id == root && t != nil {
			// The root variable's own type is v1's territory; v2 reports
			// only what the heap walk discovers beyond it.
		} else if bn := bannedShardType(t); bn != "" {
			return bn, st.path, true
		}

		// Closure captures: a reachable function object drags in its free
		// variables (capture is by reference).
		if st.id != 0 {
			if fn := g.node(st.id).fn; fn != nil {
				for _, fv := range fn.FreeVars {
					queue = append(queue, reachStep{
						id:   g.varNode(fv),
						typ:  fv.Type(),
						path: st.path + " captures " + fv.Name(),
					})
				}
				continue
			}
			// Points-to targets.
			expanded := false
			for o := range g.node(st.id).pts {
				expanded = true
				queue = append(queue, reachStep{id: o, typ: g.node(o).typ, path: st.path})
			}
			if !expanded {
				// Virtual expansion for cells the solver left empty.
				for _, vs := range virtualTargets(t, st.path) {
					queue = append(queue, vs)
				}
			}
		} else {
			for _, vs := range virtualTargets(t, st.path) {
				queue = append(queue, vs)
			}
		}

		// Structure: fields and container elements.
		if t == nil {
			continue
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			simOwned := declaredInSimPkg(baseNamed(t))
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if !carriesPointers(f.Type()) {
					continue
				}
				if simOwned && typeMentionsSimOrFunc(f.Type()) {
					// Sanctioned kernel plumbing; see doc comment.
					continue
				}
				fpath := st.path + "." + f.Name()
				if st.id != 0 {
					queue = append(queue, reachStep{id: g.fieldNode(st.id, f.Name(), f.Type()), typ: f.Type(), path: fpath})
				}
				queue = append(queue, reachStep{typ: f.Type(), path: fpath})
			}
		case *types.Array, *types.Slice:
			et := elemTypeOf(t)
			if st.id != 0 {
				queue = append(queue, reachStep{id: g.fieldNode(st.id, fieldElem, et), typ: et, path: st.path + "[i]"})
			} else if carriesPointers(et) {
				queue = append(queue, reachStep{typ: et, path: st.path + "[i]"})
			}
		case *types.Map:
			if st.id != 0 {
				queue = append(queue,
					reachStep{id: g.fieldNode(st.id, fieldKey, u.Key()), typ: u.Key(), path: st.path + "[key]"},
					reachStep{id: g.fieldNode(st.id, fieldElem, u.Elem()), typ: u.Elem(), path: st.path + "[val]"})
			}
		case *types.Chan:
			if st.id != 0 {
				queue = append(queue, reachStep{id: g.fieldNode(st.id, fieldElem, u.Elem()), typ: u.Elem(), path: st.path + "<-"})
			}
		}
	}
	return "", "", false
}

// virtualTargets expands a cell with no known objects from its static
// type: the walk continues into the pointee/element types as virtual
// cells. Interfaces and funcs dead-end (no concrete type to expand).
func virtualTargets(t types.Type, path string) []reachStep {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return []reachStep{{typ: u.Elem(), path: path}}
	case *types.Slice:
		if carriesPointers(u.Elem()) {
			return []reachStep{{typ: u.Elem(), path: path + "[i]"}}
		}
	case *types.Map:
		var out []reachStep
		if carriesPointers(u.Key()) {
			out = append(out, reachStep{typ: u.Key(), path: path + "[key]"})
		}
		if carriesPointers(u.Elem()) {
			out = append(out, reachStep{typ: u.Elem(), path: path + "[val]"})
		}
		return out
	case *types.Chan:
		if carriesPointers(u.Elem()) {
			return []reachStep{{typ: u.Elem(), path: path + "<-"}}
		}
	}
	return nil
}

// baseNamed unwraps pointers to reach a named type, or nil.
func baseNamed(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}

// typeMentionsSimOrFunc reports whether t's structure involves a
// sim-declared named type or a function type — the signal that a field of
// a kernel handle is plumbing (back-pointers, parked waiters, stored
// callbacks) rather than payload.
func typeMentionsSimOrFunc(t types.Type) bool {
	return typeMentions(t, 0, make(map[types.Type]bool))
}

func typeMentions(t types.Type, depth int, seen map[types.Type]bool) bool {
	if t == nil || depth > 12 || seen[t] {
		return false
	}
	seen[t] = true
	if declaredInSimPkg(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Pointer:
		return typeMentions(u.Elem(), depth+1, seen)
	case *types.Slice:
		return typeMentions(u.Elem(), depth+1, seen)
	case *types.Array:
		return typeMentions(u.Elem(), depth+1, seen)
	case *types.Chan:
		return typeMentions(u.Elem(), depth+1, seen)
	case *types.Map:
		return typeMentions(u.Key(), depth+1, seen) || typeMentions(u.Elem(), depth+1, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeMentions(u.Field(i).Type(), depth+1, seen) {
				return true
			}
		}
	}
	return false
}
