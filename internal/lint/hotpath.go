package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces the allocation-free discipline on functions marked
// //simlint:hotpath (the kernel event loop, free list, timers, and the
// per-operation YCSB path). These paths run millions of times per sweep
// cell; the kernel's Sleep cycle once cost 2560 allocations per benchmark
// iteration and now costs 0 (the benchmark's sim.sleep rung), and this
// analyzer is what keeps it there. Inside a marked function the analyzer
// flags:
//
//   - defer (runtime bookkeeping per call),
//   - function literals (closure allocation — reuse a stored closure like
//     Proc.wake instead),
//   - calls into fmt or log (formatting allocates; use static strings),
//   - string concatenation (every + allocates),
//   - interface boxing of non-pointer values (conversions and call
//     arguments; pointers share the interface word and stay free).
//
// Since PR 8 the check is also interprocedural: a hotpath function may
// only call callees that are themselves allocation-free (checked
// recursively through the call graph, resolving interface calls through
// the module's concrete types), other //simlint:hotpath functions (each
// enforced at its own declaration), or functions and interface methods
// annotated //simlint:coldpath — the explicit escape hatch for sanctioned
// boundaries like the kv.Client verbs, whose implementations model I/O
// and allocate by design. Calls through plain function values are not
// chased (the kernel dispatch loop invokes every scheduled closure; see
// DESIGN.md §9), and callees outside the analyzed packages are trusted.
var Hotpath = &Analyzer{
	Name:      "hotpath",
	Doc:       "functions marked //simlint:hotpath may not allocate, directly or via any callee not marked //simlint:coldpath",
	AppliesTo: func(importPath string) bool { return strings.HasPrefix(importPath, "cloudbench") },
	Run:       runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasFuncDirective(fn, dirHotpath) {
				continue
			}
			checkHotpathBody(pass, fn)
			checkHotpathCallees(pass, fn)
		}
	}
	return nil
}

// checkHotpathCallees walks the call graph out of a hotpath function and
// reports, at the first-hop call site, any reachable callee that
// allocates. Coldpath-annotated callees (and interface methods), hotpath
// callees, dynamic function values, and external callees bound the walk.
func checkHotpathCallees(pass *Pass, decl *ast.FuncDecl) {
	s := pass.Prog.SSA()
	obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	root := s.FuncOf(obj)
	if root == nil {
		return
	}
	visited := make(map[*SSAFunc]bool)
	for _, c := range root.Calls {
		if c.Iface != nil && s.ColdIface(c.Iface) {
			continue
		}
		if c.Value != 0 {
			continue // dynamic function values are not chased
		}
		for _, callee := range s.Callees(c) {
			if fact := allocatingCallee(s, callee, visited, 0); fact != "" {
				pass.Reportf(c.Pos, "call in hot path %s reaches an allocating callee: %s; mark the boundary //simlint:coldpath or make the callee allocation-free",
					decl.Name.Name, fact)
			}
		}
	}
}

// allocatingCallee returns a chain description when fn (or any function it
// can reach under the same rules) has an allocation fact in its own body,
// or "" when the subtree is clean.
func allocatingCallee(s *SSA, fn *SSAFunc, visited map[*SSAFunc]bool, depth int) string {
	if fn.Hotpath || fn.Coldpath || visited[fn] || depth > 40 {
		return ""
	}
	visited[fn] = true
	if fact := ownAllocFact(fn); fact != "" {
		return fn.Name + " " + fact
	}
	for _, c := range fn.Calls {
		if c.Iface != nil && s.ColdIface(c.Iface) {
			continue
		}
		if c.Value != 0 {
			continue
		}
		for _, callee := range s.Callees(c) {
			if sub := allocatingCallee(s, callee, visited, depth+1); sub != "" {
				return fn.Name + " → " + sub
			}
		}
	}
	return ""
}

// ownAllocFact scans fn's own body (excluding nested literals) for the
// same allocation classes the intraprocedural check enforces, returning a
// short description of the first one.
func ownAllocFact(fn *SSAFunc) string {
	if fn.Body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
		return ""
	}
	info := fn.Pkg.Info
	fact := ""
	found := func(f string) {
		if fact == "" {
			fact = f
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if fact != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			found("allocates a closure")
			return false
		case *ast.DeferStmt:
			found("defers")
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if types.IsInterface(tv.Type) && len(n.Args) == 1 && boxesInfo(info, n.Args[0]) {
					found("boxes a value into an interface")
				}
				return true
			}
			if obj := funcObj(info, n); obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "fmt", "log":
					found("formats via " + obj.Pkg().Name() + "." + obj.Name())
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringInfo(info, n.X) {
				found("concatenates strings")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringInfo(info, n.Lhs[0]) {
				found("concatenates strings")
			}
		}
		return true
	})
	return fact
}

func checkHotpathBody(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path %s: per-call runtime bookkeeping; restructure with explicit cleanup", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated in hot path %s: hoist it to a struct field built once (see Proc.wake)", name)
			return false // the literal's body runs elsewhere
		case *ast.CallExpr:
			checkHotpathCall(pass, n, name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n.X) {
				pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates; use a static string or precomputed label", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates; use a static string or precomputed label", name)
			}
		}
		return true
	})
}

func checkHotpathCall(pass *Pass, call *ast.CallExpr, name string) {
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion to interface in hot path %s boxes a non-pointer value (allocates)", name)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			// panic is the only builtin that boxes, and a panicking hot
			// path is already off the performance cliff.
			return
		}
	}
	obj := funcObj(pass.TypesInfo, call)
	if obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt", "log":
			pass.Reportf(call.Pos(), "%s.%s in hot path %s: formatting allocates; keep formatting on cold paths", obj.Pkg().Name(), obj.Name(), name)
			return
		}
	}
	// Passing a non-pointer concrete value to an interface parameter
	// boxes it at the call site.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(pass, arg) {
			pass.Reportf(arg.Pos(), "argument boxes a non-pointer value into an interface in hot path %s (allocates)", name)
		}
	}
}

func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// boxes reports whether storing arg in an interface allocates: true for
// concrete non-pointer-shaped values, false for values already in an
// interface, pointers, channels, maps, funcs, and nil.
func boxes(pass *Pass, arg ast.Expr) bool {
	return boxesInfo(pass.TypesInfo, arg)
}

func boxesInfo(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return tv.Type.Underlying().(*types.Basic).Kind() != types.UnsafePointer
	}
	return true
}

func isStringExpr(pass *Pass, x ast.Expr) bool {
	return isStringInfo(pass.TypesInfo, x)
}

func isStringInfo(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
