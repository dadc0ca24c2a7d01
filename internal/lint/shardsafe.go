package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shardsafe enforces the sharded kernel's isolation contract: shards share
// no mutable state during a window, so a cross-shard delivery closure
// (the fn argument of sim.Shard.Send) must carry plain data and reach
// state only through the destination shard it is handed. Capturing the
// *sending* side's kernel objects — a *sim.Proc, *sim.Kernel, *sim.Shard,
// or *sim.ShardGroup visible at the send site — would let the closure
// touch another shard's state while windows execute concurrently: a data
// race the conservative synchronization cannot see and a determinism leak
// even when it happens not to crash.
//
// The analyzer has two layers. The syntactic layer flags delivery
// closures whose free variables have those types (directly or as fields
// reached through a captured struct) and method values bound to them.
// The type walk (engine.reachBanned) closes the laundering holes the
// syntax cannot see: from each captured value it walks the static types
// of struct fields whether or not the closure touches them, and of
// slice, map and channel elements; the concrete types and closures the
// flow table lets into an interface or func slot; and those closures'
// captures. It flags the capture if a sending-side kernel object is
// anywhere in that walk. Kernel handles that legitimately cross shards (a
// *sim.Future reply handle) stay legal: inside sim-declared structs only
// payload fields are walked, not the kernel plumbing.
var Shardsafe = &Analyzer{
	Name:      "shardsafe",
	Doc:       "cross-shard delivery closures must not capture or reach the sending shard's kernel objects",
	AppliesTo: simReachable,
	Run:       runShardsafe,
}

func runShardsafe(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isShardSend(funcObj(pass.TypesInfo, call)) || len(call.Args) != 3 {
				return true
			}
			switch arg := ast.Unparen(call.Args[2]).(type) {
			case *ast.FuncLit:
				flagged := checkDeliveryCaptures(pass, arg)
				checkDeliveryReachability(pass, arg, flagged)
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[arg]; ok && sel.Kind() == types.MethodVal {
					if name := bannedShardType(sel.Recv()); name != "" {
						pass.Reportf(arg.Pos(), "cross-shard delivery fn is a method bound to a %s on the sending side; deliver plain data and reach state through the *sim.Shard the closure receives", name)
					}
				}
			case *ast.Ident:
				// A variable holding the payload closure: walk whatever
				// closures the flow table lets into it (a stored
				// closure's captures escape the syntactic check).
				if obj, ok := pass.TypesInfo.ObjectOf(arg).(*types.Var); ok {
					if name, path, found := pass.Prog.engine().reachBanned(obj); found {
						pass.Reportf(arg.Pos(), "cross-shard delivery fn reaches a %s from the sending shard (%s); deliver plain data and reach state through the *sim.Shard it receives", name, path)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkDeliveryCaptures reports free variables of lit (identifiers
// declared outside the literal) whose types are sending-side kernel
// objects, and banned-typed fields reached through any captured struct.
// It returns the capture roots it reported, so the type walk does not
// re-report the same variables.
func checkDeliveryCaptures(pass *Pass, lit *ast.FuncLit) map[*types.Var]bool {
	flagged := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj, ok := pass.TypesInfo.ObjectOf(n).(*types.Var)
			if !ok || obj.IsField() || !declaredOutside(lit, obj) {
				return true
			}
			if name := bannedShardType(obj.Type()); name != "" {
				flagged[obj] = true
				pass.Reportf(n.Pos(), "cross-shard delivery fn captures %s %q from the sending shard; pass plain data (ids, keys, values) and reach state through the *sim.Shard it receives", name, n.Name)
			}
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if name := bannedShardType(pass.TypesInfo.TypeOf(n)); name != "" {
				if root, ok := capturedRoot(pass, lit, n.X); ok {
					flagged[root] = true
					pass.Reportf(n.Pos(), "cross-shard delivery fn reaches a %s through a captured value; pass plain data and reach state through the *sim.Shard it receives", name)
				}
			}
		}
		return true
	})
	return flagged
}

// checkDeliveryReachability runs the type walk over lit's free variables,
// skipping roots the syntactic layer already reported.
func checkDeliveryReachability(pass *Pass, lit *ast.FuncLit, flagged map[*types.Var]bool) {
	for _, fv := range freeVarsOf(pass.TypesInfo, lit) {
		if flagged[fv] || bannedShardType(fv.Type()) != "" {
			continue // the syntactic layer's territory
		}
		name, path, found := pass.Prog.engine().reachBanned(fv)
		if !found {
			continue
		}
		pass.Reportf(firstUseIn(pass, lit, fv), "cross-shard delivery fn reaches a %s from the sending shard through captured %q (%s); deliver plain data and reach state through the *sim.Shard it receives",
			name, fv.Name(), path)
	}
}

// firstUseIn locates the first reference to v inside lit, so the
// diagnostic lands on the offending capture rather than on the literal.
func firstUseIn(pass *Pass, lit *ast.FuncLit, v *types.Var) token.Pos {
	pos := lit.Pos()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if pos != lit.Pos() {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
			pos = id.Pos()
			return false
		}
		return true
	})
	return pos
}

// capturedRoot returns the captured variable a field chain bottoms out in
// — i.e. the chain starts at an identifier declared outside lit rather
// than at the delivered shard parameter or a call result.
func capturedRoot(pass *Pass, lit *ast.FuncLit, e ast.Expr) (*types.Var, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj, ok := pass.TypesInfo.ObjectOf(x).(*types.Var)
			if ok && !obj.IsField() && declaredOutside(lit, obj) {
				return obj, true
			}
			return nil, false
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func declaredOutside(lit *ast.FuncLit, obj types.Object) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// isShardSend reports whether fn is the sim kernel's cross-shard delivery
// method (*Shard).Send. Matching is by package name rather than import
// path so the golden-test stub package exercises the same code.
func isShardSend(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Send" || fn.Pkg() == nil || fn.Pkg().Name() != "sim" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return bannedShardType(sig.Recv().Type()) == "*sim.Shard"
}

// bannedShardType returns the display name of t when it is (a pointer to)
// one of the sim kernel objects a delivery closure must not capture, and
// "" otherwise.
func bannedShardType(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "sim" {
		return ""
	}
	switch obj.Name() {
	case "Proc", "Kernel", "Shard", "ShardGroup":
		return "*sim." + obj.Name()
	}
	return ""
}
