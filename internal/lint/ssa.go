package lint

// SSA-lite lowering for the interprocedural analyzers.
//
// The intended host for this layer is golang.org/x/tools/go/ssa, but this
// build environment is offline with an empty module cache (see load.go), so
// the engine is self-contained: every function in the analysis targets is
// lowered from its type-checked AST into a register-transfer form with one
// virtual register per source variable. Because the only consumer is a
// flow-insensitive Andersen-style points-to analysis (pointsto.go), the
// lowering deliberately omits phi nodes and basic blocks: merging all
// assignments to a variable into one register is exactly the approximation
// a flow-insensitive analysis makes anyway, and it keeps the builder small
// enough to audit. The lint.Pass API is unchanged — analyzers reach the
// engine through Pass.Prog.SSA(), and the build is cached on the Program so
// the whole analyzer suite shares one engine instance per process.
//
// What the lowering produces, per function (declared or literal):
//
//   - points-to constraints (address-of, copy, field load, field store)
//     over a node graph where every variable, allocation site, and field
//     is a node (see pointsto.go),
//   - a call table recording each call site with its static callee,
//     interface method, or dynamic callee value node,
//   - free-variable lists for function literals (captures are by
//     reference in Go, so a literal's body simply reuses the outer
//     variable's node — context-insensitivity gives capture for free).
//
// Call-graph resolution (SSA.Callees) is hybrid: static calls resolve
// directly; interface calls resolve through class-hierarchy analysis over
// the concrete types declared in the targets; calls through function
// values resolve through the points-to solution, which the solver reaches
// by iterating constraint generation and dynamic-call linking to a fixed
// point. Soundness caveats are documented in DESIGN.md §9.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SSA is the interprocedural engine: the lowered form of every target
// package, plus the solved points-to graph.
type SSA struct {
	prog  *Program
	fset  *token.FileSet
	Funcs []*SSAFunc

	byObj map[*types.Func]*SSAFunc
	byLit map[*ast.FuncLit]*SSAFunc

	pt *ptGraph

	// namedTypes are the named (non-alias) types declared in target
	// packages, the universe for class-hierarchy interface resolution.
	namedTypes []*types.Named

	// results[fn][i] is the node receiving the i'th return value of fn.
	results map[*types.Func][]nodeID

	// methodImpls caches CHA resolution keyed by interface method.
	methodImpls map[*types.Func][]*SSAFunc

	// coldIface marks interface method declarations annotated
	// //simlint:coldpath — sanctioned allocation boundaries for hotpath.
	coldIface map[*types.Func]bool
}

// SSAFunc is one lowered function: a declared function or method (Obj set)
// or a function literal (Lit set).
type SSAFunc struct {
	Name string // qualified display name
	Obj  *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package
	Pos  token.Pos
	Sig  *types.Signature

	// Calls lists every call site in the body, in source order.
	Calls []*SSACall

	// FreeVars lists, for literals, the variables referenced by the body
	// but declared outside it.
	FreeVars []*types.Var

	// Parent is the enclosing function for literals.
	Parent *SSAFunc

	// Hotpath/Coldpath record the function's //simlint: doc directives
	// for the interprocedural hotpath analyzer.
	Hotpath  bool
	Coldpath bool

	node    nodeID // the function-object node (what a value of this func points to)
	results []nodeID
}

// String returns the function's qualified display name.
func (f *SSAFunc) String() string { return f.Name }

// SSACall is one call site. Exactly one of Static, Iface, or Value
// describes the callee: a statically known function (possibly external to
// the targets), an interface method, or a dynamic function value.
type SSACall struct {
	Fn   *SSAFunc
	Pos  token.Pos
	Expr *ast.CallExpr

	Static *types.Func
	Iface  *types.Func
	Value  nodeID

	recv    nodeID
	args    []nodeID
	results []nodeID

	// dynLinked records which dynamic callees already have param/result
	// edges, so the iterate-to-fixpoint loop adds each link once.
	dynLinked map[*SSAFunc]bool
}

// SSA returns the program's interprocedural engine, building and solving
// it on first use. The result is cached: every analyzer in one driver run
// shares the same lowered form and points-to solution.
func (p *Program) SSA() *SSA {
	if p.ssa == nil {
		p.ssa = buildSSA(p)
	}
	return p.ssa
}

func buildSSA(prog *Program) *SSA {
	s := &SSA{
		prog:        prog,
		fset:        prog.Fset,
		byObj:       make(map[*types.Func]*SSAFunc),
		byLit:       make(map[*ast.FuncLit]*SSAFunc),
		results:     make(map[*types.Func][]nodeID),
		methodImpls: make(map[*types.Func][]*SSAFunc),
		coldIface:   make(map[*types.Func]bool),
	}
	s.pt = newPTGraph(s)

	// Pass 1: shells for every declared function and named type, so call
	// linking never depends on lowering order.
	for _, pkg := range prog.Targets() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					s.namedTypes = append(s.namedTypes, named)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					s.collectColdIface(pkg, decl)
				case *ast.FuncDecl:
					fd := decl
					if fd.Body == nil {
						continue
					}
					obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if obj == nil {
						continue
					}
					fn := &SSAFunc{
						Name:     funcDisplayName(obj),
						Obj:      obj,
						Body:     fd.Body,
						Pkg:      pkg,
						Pos:      fd.Pos(),
						Sig:      obj.Type().(*types.Signature),
						Hotpath:  hasFuncDirective(fd, dirHotpath),
						Coldpath: hasFuncDirective(fd, dirColdpath),
					}
					fn.node = s.pt.funcNode(fn)
					s.byObj[obj] = fn
					s.Funcs = append(s.Funcs, fn)
				}
			}
		}
	}

	// Pass 2: lower every body. Literals get shells as they are
	// encountered (they cannot be referenced before their own lowering
	// position except through a value, which flows through nodes).
	for _, fn := range s.Funcs[:len(s.Funcs):len(s.Funcs)] {
		lw := &lowerer{ssa: s, fn: fn, pkg: fn.Pkg}
		lw.block(fn.Body)
	}

	// Pass 3: package-level variable initializers, lowered as synthetic
	// per-package init bodies.
	for _, pkg := range prog.Targets() {
		initFn := &SSAFunc{
			Name: pkg.ImportPath + ".init#lint",
			Pkg:  pkg,
			Sig:  types.NewSignatureType(nil, nil, nil, nil, nil, false),
		}
		initFn.node = s.pt.funcNode(initFn)
		s.Funcs = append(s.Funcs, initFn)
		lw := &lowerer{ssa: s, fn: initFn, pkg: pkg}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						lw.valueSpec(vs)
					}
				}
			}
		}
	}

	// Pass 4: interface call edges via CHA (purely static), then solve
	// points-to, linking dynamic callees discovered by the solution until
	// no new edges appear.
	for _, fn := range s.Funcs {
		for _, c := range fn.Calls {
			if c.Iface != nil {
				for _, impl := range s.implsOf(c.Iface) {
					s.linkCall(c, impl)
				}
			}
		}
	}
	s.pt.solve()
	for {
		added := false
		for _, fn := range s.Funcs {
			for _, c := range fn.Calls {
				if c.Value == 0 {
					continue
				}
				for _, callee := range s.pt.funcsIn(c.Value) {
					if c.dynLinked[callee] {
						continue
					}
					s.linkCall(c, callee)
					added = true
				}
			}
		}
		if !added {
			return s
		}
		s.pt.solve()
	}
}

// collectColdIface records //simlint:coldpath directives on interface
// method declarations: a hotpath function may call such a method even when
// an implementation allocates, because the annotation declares the verb an
// intentional cold boundary (e.g. kv.Client operations that model I/O).
func (s *SSA) collectColdIface(pkg *Package, gd *ast.GenDecl) {
	if gd.Tok != token.TYPE {
		return
	}
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok || it.Methods == nil {
			continue
		}
		for _, m := range it.Methods.List {
			if len(m.Names) == 0 {
				continue // embedded interface
			}
			if !docHasDirective(m.Doc, dirColdpath) && !docHasDirective(m.Comment, dirColdpath) {
				continue
			}
			for _, name := range m.Names {
				if obj, ok := pkg.Info.Defs[name].(*types.Func); ok {
					s.coldIface[obj.Origin()] = true
				}
			}
		}
	}
}

// ColdIface reports whether an interface method declaration carries
// //simlint:coldpath.
func (s *SSA) ColdIface(m *types.Func) bool {
	return m != nil && s.coldIface[m.Origin()]
}

// FuncOf returns the lowered form of a declared function or method, or nil
// when obj is external to the targets or body-less.
func (s *SSA) FuncOf(obj *types.Func) *SSAFunc {
	if obj == nil {
		return nil
	}
	return s.byObj[obj.Origin()]
}

// LitOf returns the lowered form of a function literal in a target package.
func (s *SSA) LitOf(lit *ast.FuncLit) *SSAFunc { return s.byLit[lit] }

// Callees resolves a call site to the target functions it may invoke:
// the static callee, the CHA implementations of an interface method, or
// the points-to set of a dynamic callee value. External callees resolve to
// nothing — the engine's soundness boundary (DESIGN.md §9).
func (s *SSA) Callees(c *SSACall) []*SSAFunc {
	switch {
	case c.Static != nil:
		if fn := s.FuncOf(c.Static); fn != nil {
			return []*SSAFunc{fn}
		}
		return nil
	case c.Iface != nil:
		return s.implsOf(c.Iface)
	case c.Value != 0:
		return s.pt.funcsIn(c.Value)
	}
	return nil
}

// implsOf resolves an interface method to the concrete target methods that
// may satisfy it: every named type in the targets whose method set (value
// or pointer) implements the method's interface contributes its
// like-named method.
func (s *SSA) implsOf(m *types.Func) []*SSAFunc {
	m = m.Origin()
	if impls, ok := s.methodImpls[m]; ok {
		return impls
	}
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		s.methodImpls[m] = nil
		return nil
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		s.methodImpls[m] = nil
		return nil
	}
	var impls []*SSAFunc
	for _, named := range s.namedTypes {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, it):
			impl = named
		case types.Implements(types.NewPointer(named), it):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if cm, ok := obj.(*types.Func); ok {
			if fn := s.FuncOf(cm); fn != nil {
				impls = append(impls, fn)
			}
		}
	}
	s.methodImpls[m] = impls
	return impls
}

// linkCall adds the param/result constraint edges for callee being invoked
// at c. Links are idempotent per (call, callee) pair.
func (s *SSA) linkCall(c *SSACall, callee *SSAFunc) {
	if c.dynLinked == nil {
		c.dynLinked = make(map[*SSAFunc]bool)
	}
	if c.dynLinked[callee] {
		return
	}
	c.dynLinked[callee] = true
	sig := callee.Sig
	if recv := sig.Recv(); recv != nil && c.recv != 0 {
		s.pt.copyValue(s.pt.varNode(recv), c.recv, recv.Type())
	}
	params := sig.Params()
	for i, arg := range c.args {
		if arg == 0 {
			continue
		}
		var pv *types.Var
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pv = params.At(params.Len() - 1)
			if c.Expr == nil || !c.Expr.Ellipsis.IsValid() {
				// Individual variadic args land in the parameter slice's
				// element.
				pn := s.pt.varNode(pv)
				s.pt.ensureObjFor(pn, pv.Type())
				s.pt.store(pn, fieldElem, arg, elemTypeOf(pv.Type()))
				continue
			}
		case i < params.Len():
			pv = params.At(i)
		default:
			continue
		}
		s.pt.copyValue(s.pt.varNode(pv), arg, pv.Type())
	}
	for i, res := range s.resultNodes(callee) {
		if i < len(c.results) && c.results[i] != 0 {
			s.pt.copyValue(c.results[i], res, sig.Results().At(i).Type())
		}
	}
}

// resultNodes returns (creating on demand) the nodes that accumulate
// callee's return values.
func (s *SSA) resultNodes(fn *SSAFunc) []nodeID {
	if fn.results == nil {
		n := fn.Sig.Results().Len()
		fn.results = make([]nodeID, n)
		for i := 0; i < n; i++ {
			fn.results[i] = s.pt.tempNode(fn.Sig.Results().At(i).Type(), fn.Pos)
		}
	}
	return fn.results
}

func funcDisplayName(obj *types.Func) string {
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Name(), named.Obj().Name(), obj.Name())
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// lowerer lowers one function body to constraints and call records.
type lowerer struct {
	ssa *SSA
	fn  *SSAFunc
	pkg *Package
}

func (l *lowerer) info() *types.Info { return l.pkg.Info }
func (l *lowerer) pt() *ptGraph      { return l.ssa.pt }

func (l *lowerer) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		l.stmt(st)
	}
}

func (l *lowerer) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		l.assign(st)
	case *ast.ExprStmt:
		l.value(st.X)
	case *ast.ReturnStmt:
		res := l.ssa.resultNodes(l.fn)
		if len(st.Results) == 1 && len(res) > 1 {
			// return f() forwarding multiple results.
			if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
				for i, rn := range l.call(call, len(res)) {
					if i < len(res) {
						l.pt().copyValue(res[i], rn, l.fn.Sig.Results().At(i).Type())
					}
				}
				return
			}
		}
		for i, e := range st.Results {
			if i < len(res) {
				l.pt().copyValue(res[i], l.value(e), l.fn.Sig.Results().At(i).Type())
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			l.stmt(st.Init)
		}
		l.value(st.Cond)
		l.block(st.Body)
		if st.Else != nil {
			l.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			l.stmt(st.Init)
		}
		if st.Cond != nil {
			l.value(st.Cond)
		}
		l.block(st.Body)
		if st.Post != nil {
			l.stmt(st.Post)
		}
	case *ast.RangeStmt:
		l.rangeStmt(st)
	case *ast.BlockStmt:
		l.block(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			l.stmt(st.Init)
		}
		if st.Tag != nil {
			l.value(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				l.value(e)
			}
			for _, bs := range cc.Body {
				l.stmt(bs)
			}
		}
	case *ast.TypeSwitchStmt:
		l.typeSwitch(st)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				l.stmt(cc.Comm)
			}
			for _, bs := range cc.Body {
				l.stmt(bs)
			}
		}
	case *ast.SendStmt:
		ch := l.value(st.Chan)
		l.pt().store(ch, fieldElem, l.value(st.Value), typeOf(l.info(), st.Value))
	case *ast.GoStmt:
		l.call(st.Call, 0)
	case *ast.DeferStmt:
		l.call(st.Call, 0)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					l.valueSpec(vs)
				}
			}
		}
	case *ast.LabeledStmt:
		l.stmt(st.Stmt)
	case *ast.IncDecStmt:
		l.value(st.X)
	}
}

func (l *lowerer) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			rns := l.call(call, len(vs.Names))
			for i, name := range vs.Names {
				if i < len(rns) {
					l.assignToIdent(name, rns[i])
				}
			}
			return
		}
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			l.assignToIdent(name, l.value(vs.Values[i]))
		}
	}
}

func (l *lowerer) typeSwitch(st *ast.TypeSwitchStmt) {
	if st.Init != nil {
		l.stmt(st.Init)
	}
	var src nodeID
	var declared *ast.Ident
	switch a := st.Assign.(type) {
	case *ast.AssignStmt: // v := x.(type)
		if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
			src = l.value(ta.X)
		}
		declared, _ = a.Lhs[0].(*ast.Ident)
	case *ast.ExprStmt: // x.(type)
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			src = l.value(ta.X)
		}
	}
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		if declared != nil && src != 0 {
			// Each clause declares its own narrowed variable (Implicits);
			// an unfiltered copy over-approximates the narrowing.
			if obj, ok := l.info().Implicits[cc].(*types.Var); ok {
				l.pt().copyValue(l.pt().varNode(obj), src, obj.Type())
			}
		}
		for _, bs := range cc.Body {
			l.stmt(bs)
		}
	}
}

func (l *lowerer) rangeStmt(st *ast.RangeStmt) {
	x := l.value(st.X)
	t := typeOf(l.info(), st.X)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Map, *types.Chan, *types.Pointer:
			if st.Value != nil {
				l.assignFrom(st.Value, l.pt().load(x, fieldElem, elemTypeOf(t), st.Pos()))
			}
			if st.Key != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					l.assignFrom(st.Key, l.pt().load(x, fieldKey, keyTypeOf(t), st.Pos()))
				}
			}
			if st.Value == nil && st.Key != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					l.assignFrom(st.Key, l.pt().load(x, fieldElem, elemTypeOf(t), st.Pos()))
				}
			}
		case *types.Signature: // range-over-func iterators: approximate by calling
		}
	}
	l.block(st.Body)
}

// assign lowers one assignment statement, including := and op-assigns.
func (l *lowerer) assign(st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// x op= y moves no pointers (strings/ints); evaluate for calls.
		for _, e := range st.Rhs {
			l.value(e)
		}
		return
	}
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		switch rhs := ast.Unparen(st.Rhs[0]).(type) {
		case *ast.CallExpr:
			rns := l.call(rhs, len(st.Lhs))
			for i, lhs := range st.Lhs {
				if i < len(rns) {
					l.assignFrom(lhs, rns[i])
				}
			}
		case *ast.TypeAssertExpr:
			l.assignFrom(st.Lhs[0], l.value(rhs))
		case *ast.IndexExpr: // v, ok := m[k]
			l.assignFrom(st.Lhs[0], l.value(rhs))
		case *ast.UnaryExpr: // v, ok := <-ch
			l.assignFrom(st.Lhs[0], l.value(rhs))
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			l.assignFrom(lhs, l.value(st.Rhs[i]))
		}
	}
}

// assignFrom stores the value in src into the location named by lhs.
func (l *lowerer) assignFrom(lhs ast.Expr, src nodeID) {
	if src == 0 {
		// Still evaluate the destination for side effects (index exprs).
		l.lvalueEval(lhs)
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		l.assignToIdent(lhs, src)
	case *ast.SelectorExpr:
		base, owner, name, direct := l.fieldBase(lhs)
		if name == "" {
			return
		}
		if direct {
			l.pt().copyValue(l.pt().fieldNode(base, name, owner), src, owner)
		} else {
			l.pt().store(base, name, src, owner)
		}
	case *ast.StarExpr:
		p := l.value(lhs.X)
		l.pt().store(p, fieldDeref, src, elemTypeOf(typeOf(l.info(), lhs.X)))
	case *ast.IndexExpr:
		x := l.value(lhs.X)
		l.value(lhs.Index)
		l.pt().store(x, fieldElem, src, elemTypeOf(typeOf(l.info(), lhs.X)))
	}
}

func (l *lowerer) lvalueEval(lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		l.value(lhs.X)
		l.value(lhs.Index)
	case *ast.SelectorExpr:
		l.value(lhs.X)
	case *ast.StarExpr:
		l.value(lhs.X)
	}
}

func (l *lowerer) assignToIdent(id *ast.Ident, src nodeID) {
	if id.Name == "_" {
		return
	}
	obj, _ := l.info().ObjectOf(id).(*types.Var)
	if obj == nil {
		return
	}
	l.pt().copyValue(l.pt().varNode(obj), src, obj.Type())
}

// value lowers an expression and returns the node holding its value
// (0 when the value carries no pointers worth tracking).
func (l *lowerer) value(e ast.Expr) nodeID {
	if e == nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return l.value(e.X)
	case *ast.Ident:
		switch obj := l.info().ObjectOf(e).(type) {
		case *types.Var:
			return l.pt().varNode(obj)
		case *types.Func:
			// A function referenced as a value.
			if fn := l.ssa.FuncOf(obj); fn != nil {
				t := l.pt().tempNode(obj.Type(), e.Pos())
				l.pt().addAddr(t, fn.node)
				return t
			}
		}
		return 0
	case *ast.SelectorExpr:
		return l.selector(e)
	case *ast.CallExpr:
		rns := l.call(e, 1)
		if len(rns) > 0 {
			return rns[0]
		}
		return 0
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			return l.addressOf(e.X)
		case token.ARROW:
			ch := l.value(e.X)
			return l.pt().load(ch, fieldElem, elemTypeOf(typeOf(l.info(), e.X)), e.Pos())
		default:
			l.value(e.X)
			return 0
		}
	case *ast.StarExpr:
		p := l.value(e.X)
		return l.pt().load(p, fieldDeref, typeOf(l.info(), e), e.Pos())
	case *ast.IndexExpr:
		// Generic instantiation of a function value parses as IndexExpr.
		if tv, ok := l.info().Types[e.X]; ok && tv.IsType() {
			return 0
		}
		if _, isSig := typeOf(l.info(), e.X).(*types.Signature); isSig {
			return l.value(e.X)
		}
		x := l.value(e.X)
		l.value(e.Index)
		return l.pt().load(x, fieldElem, typeOf(l.info(), e), e.Pos())
	case *ast.IndexListExpr:
		return l.value(e.X)
	case *ast.SliceExpr:
		l.value(e.Low)
		l.value(e.High)
		l.value(e.Max)
		return l.value(e.X) // a slice shares its operand's backing array
	case *ast.TypeAssertExpr:
		// Over-approximate the narrowing with an unfiltered copy.
		t := l.pt().tempNode(typeOf(l.info(), e), e.Pos())
		l.pt().copyValue(t, l.value(e.X), typeOf(l.info(), e))
		return t
	case *ast.CompositeLit:
		return l.compositeLit(e)
	case *ast.FuncLit:
		fn := l.litShell(e)
		t := l.pt().tempNode(typeOf(l.info(), e), e.Pos())
		l.pt().addAddr(t, fn.node)
		return t
	case *ast.BinaryExpr:
		l.value(e.X)
		l.value(e.Y)
		return 0
	case *ast.KeyValueExpr:
		l.value(e.Key)
		return l.value(e.Value)
	default:
		return 0
	}
}

// litShell creates (once) and lowers the SSAFunc for a literal.
func (l *lowerer) litShell(lit *ast.FuncLit) *SSAFunc {
	if fn := l.ssa.byLit[lit]; fn != nil {
		return fn
	}
	sig, _ := typeOf(l.info(), lit).(*types.Signature)
	if sig == nil {
		sig = types.NewSignatureType(nil, nil, nil, nil, nil, false)
	}
	fn := &SSAFunc{
		Name:   l.fn.Name + fmt.Sprintf("$%d", len(l.ssa.byLit)+1),
		Lit:    lit,
		Body:   lit.Body,
		Pkg:    l.pkg,
		Pos:    lit.Pos(),
		Sig:    sig,
		Parent: l.fn,
	}
	fn.node = l.pt().funcNode(fn)
	fn.FreeVars = freeVarsOf(l.info(), lit)
	l.ssa.byLit[lit] = fn
	l.ssa.Funcs = append(l.ssa.Funcs, fn)
	lw := &lowerer{ssa: l.ssa, fn: fn, pkg: l.pkg}
	lw.block(lit.Body)
	return fn
}

// freeVarsOf collects the variables referenced inside lit but declared
// outside it (Go closures capture by reference, so these share the outer
// nodes).
func freeVarsOf(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// addressOf lowers &x.
func (l *lowerer) addressOf(x ast.Expr) nodeID {
	x = ast.Unparen(x)
	t := l.pt().tempNode(types.NewPointer(typeOf(l.info(), x)), x.Pos())
	switch x := x.(type) {
	case *ast.Ident:
		if obj, ok := l.info().ObjectOf(x).(*types.Var); ok {
			l.pt().addAddr(t, l.pt().varNode(obj))
		}
	case *ast.CompositeLit:
		l.pt().addAddr(t, l.compositeLit(x))
	case *ast.SelectorExpr:
		base, owner, name, direct := l.fieldBase(x)
		if name == "" {
			return t
		}
		if direct {
			l.pt().addAddr(t, l.pt().fieldNode(base, name, owner))
		} else {
			// &p.f: the field of every object p may point at.
			l.pt().addFieldAddr(t, base, name, owner)
		}
	case *ast.IndexExpr:
		base := l.value(x.X)
		l.value(x.Index)
		l.pt().addFieldAddr(t, base, fieldElem, elemTypeOf(typeOf(l.info(), x.X)))
	case *ast.StarExpr:
		// &*p == p.
		return l.value(x.X)
	}
	return t
}

// compositeLit allocates the object for a composite literal and wires its
// element flows. Struct and array literals are values: the object node
// itself is returned as the value cell. Slice and map literals are
// reference-shaped: the returned cell points at the backing object.
func (l *lowerer) compositeLit(e *ast.CompositeLit) nodeID {
	t := typeOf(l.info(), e)
	obj := l.pt().allocNode(t, e.Pos())
	out := obj
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		out = l.pt().tempNode(t, e.Pos())
		l.pt().addAddr(out, obj)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				name, _ := kv.Key.(*ast.Ident)
				if name == nil {
					continue
				}
				ft := fieldTypeByName(u, name.Name)
				l.pt().copyValue(l.pt().fieldNode(obj, name.Name, ft), l.value(kv.Value), ft)
			} else if i < u.NumFields() {
				f := u.Field(i)
				l.pt().copyValue(l.pt().fieldNode(obj, f.Name(), f.Type()), l.value(el), f.Type())
			}
		}
	case *types.Slice, *types.Array:
		et := elemTypeOf(t)
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			l.pt().copyValue(l.pt().fieldNode(obj, fieldElem, et), l.value(v), et)
		}
	case *types.Map:
		for _, el := range e.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			l.pt().copyValue(l.pt().fieldNode(obj, fieldKey, keyTypeOf(t)), l.value(kv.Key), keyTypeOf(t))
			l.pt().copyValue(l.pt().fieldNode(obj, fieldElem, elemTypeOf(t)), l.value(kv.Value), elemTypeOf(t))
		}
	}
	return out
}

// selector lowers a non-call selector: package member, field read, or
// method value.
func (l *lowerer) selector(e *ast.SelectorExpr) nodeID {
	// Qualified package identifier (pkg.Var / pkg.Func).
	if id, ok := e.X.(*ast.Ident); ok {
		if _, isPkg := l.info().ObjectOf(id).(*types.PkgName); isPkg {
			switch obj := l.info().ObjectOf(e.Sel).(type) {
			case *types.Var:
				return l.pt().varNode(obj)
			case *types.Func:
				if fn := l.ssa.FuncOf(obj); fn != nil {
					t := l.pt().tempNode(obj.Type(), e.Pos())
					l.pt().addAddr(t, fn.node)
					return t
				}
			}
			return 0
		}
	}
	sel, ok := l.info().Selections[e]
	if !ok {
		return 0
	}
	switch sel.Kind() {
	case types.FieldVal:
		base, owner, name, direct := l.fieldBase(e)
		if name == "" {
			return 0
		}
		if direct {
			return l.pt().fieldNode(base, name, owner)
		}
		return l.pt().load(base, name, owner, e.Pos())
	case types.MethodVal, types.MethodExpr:
		m, _ := sel.Obj().(*types.Func)
		if fn := l.ssa.FuncOf(m); fn != nil {
			// Bind the receiver eagerly (the method value may be invoked
			// anywhere); the bound value points to the method's function
			// object.
			if recv := fn.Sig.Recv(); recv != nil && sel.Kind() == types.MethodVal {
				l.pt().copyValue(l.pt().varNode(recv), l.value(e.X), recv.Type())
			}
			t := l.pt().tempNode(typeOf(l.info(), e), e.Pos())
			l.pt().addAddr(t, fn.node)
			return t
		}
		l.value(e.X)
		return 0
	}
	return 0
}

// fieldBase resolves the base node and final field for a selector
// expression denoting a field, walking any embedded-field path. direct
// reports that base is the struct value itself (read its field node);
// otherwise base is a pointer and the access is a load/store through it.
func (l *lowerer) fieldBase(e *ast.SelectorExpr) (base nodeID, ftype types.Type, name string, direct bool) {
	sel, ok := l.info().Selections[e]
	if !ok || sel.Kind() != types.FieldVal {
		return 0, nil, "", false
	}
	base = l.value(e.X)
	if base == 0 {
		return 0, nil, "", false
	}
	t := sel.Recv()
	direct = true
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
		direct = false
	}
	idx := sel.Index()
	// Walk the embedded path: every hop but the last loads/creates the
	// intermediate field node.
	for step, i := range idx {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return 0, nil, "", false
		}
		f := st.Field(i)
		if step == len(idx)-1 {
			return base, f.Type(), f.Name(), direct
		}
		if direct {
			base = l.pt().fieldNode(base, f.Name(), f.Type())
		} else {
			base = l.pt().load(base, f.Name(), f.Type(), e.Pos())
		}
		t = f.Type()
		direct = true
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			direct = false
		}
	}
	return 0, nil, "", false
}

// call lowers a call expression (or conversion, or builtin) and returns
// nodes for nresults results.
func (l *lowerer) call(e *ast.CallExpr, nresults int) []nodeID {
	info := l.info()
	// Type conversion.
	if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
		if len(e.Args) != 1 {
			return nil
		}
		src := l.value(e.Args[0])
		dst := tv.Type
		t := l.pt().tempNode(dst, e.Pos())
		if src != 0 {
			// copyValue handles interface boxing from the node types.
			l.pt().copyValue(t, src, dst)
		}
		return []nodeID{t}
	}
	// Builtins.
	if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			return l.builtin(id.Name, e)
		}
	}

	c := &SSACall{Fn: l.fn, Pos: e.Pos(), Expr: e}
	fun := ast.Unparen(e.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok {
			c.Static = obj.Origin()
		} else {
			c.Value = l.value(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			c.recv = l.value(fn.X)
			if types.IsInterface(sel.Recv().Underlying()) {
				c.Iface = m.Origin()
			} else {
				c.Static = m.Origin()
			}
		} else if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			c.Static = obj.Origin() // qualified pkg.Func
		} else {
			c.Value = l.value(fn)
		}
	default:
		c.Value = l.value(fun)
	}

	for _, arg := range e.Args {
		c.args = append(c.args, l.value(arg))
	}

	// Result nodes. For external static callees the results are fresh
	// opaque objects of the declared result types — the engine does not
	// look inside the standard library.
	var resTypes []types.Type
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < tuple.Len(); i++ {
				resTypes = append(resTypes, tuple.At(i).Type())
			}
		} else if _, isVoid := tv.Type.(*types.Tuple); !isVoid && tv.Type != types.Typ[types.Invalid] {
			if b, ok := tv.Type.(*types.Basic); !ok || b.Kind() != types.Invalid {
				resTypes = append(resTypes, tv.Type)
			}
		}
	}
	external := c.Static != nil && l.ssa.FuncOf(c.Static) == nil && c.Iface == nil
	for i, rt := range resTypes {
		rn := l.pt().tempNode(rt, e.Pos())
		if external {
			l.pt().seedExternal(rn, rt, e.Pos())
		}
		c.results = append(c.results, rn)
		_ = i
	}

	l.fn.Calls = append(l.fn.Calls, c)
	if c.Static != nil {
		if callee := l.ssa.FuncOf(c.Static); callee != nil {
			l.ssa.linkCall(c, callee)
		}
	}
	if nresults > len(c.results) {
		nresults = len(c.results)
	}
	return c.results[:nresults]
}

func (l *lowerer) builtin(name string, e *ast.CallExpr) []nodeID {
	switch name {
	case "append":
		if len(e.Args) == 0 {
			return nil
		}
		st := typeOf(l.info(), e.Args[0])
		base := l.value(e.Args[0])
		out := l.pt().tempNode(st, e.Pos())
		obj := l.pt().allocNode(st, e.Pos())
		l.pt().addAddr(out, obj)
		if base != 0 {
			// The result may share the operand's backing array.
			l.pt().copyValue(out, base, st)
		}
		et := elemTypeOf(st)
		for i, arg := range e.Args[1:] {
			v := l.value(arg)
			if v == 0 {
				continue
			}
			if e.Ellipsis.IsValid() && i == len(e.Args[1:])-1 {
				// append(a, b...): elements of b flow into the result.
				l.pt().copyValue(out, v, st)
				continue
			}
			l.pt().store(out, fieldElem, v, et)
		}
		return []nodeID{out}
	case "copy":
		if len(e.Args) == 2 {
			dst, src := l.value(e.Args[0]), l.value(e.Args[1])
			et := elemTypeOf(typeOf(l.info(), e.Args[0]))
			v := l.pt().load(src, fieldElem, et, e.Pos())
			l.pt().store(dst, fieldElem, v, et)
		}
		return nil
	case "new":
		t := l.pt().tempNode(typeOf(l.info(), e), e.Pos())
		if tv, ok := l.info().Types[e.Args[0]]; ok && tv.Type != nil {
			l.pt().addAddr(t, l.pt().allocNode(tv.Type, e.Pos()))
		}
		return []nodeID{t}
	case "make":
		t := typeOf(l.info(), e)
		for _, a := range e.Args[1:] {
			l.value(a)
		}
		out := l.pt().tempNode(t, e.Pos())
		l.pt().addAddr(out, l.pt().allocNode(t, e.Pos()))
		return []nodeID{out}
	case "min", "max":
		var out nodeID
		for _, a := range e.Args {
			if v := l.value(a); v != 0 && out == 0 {
				out = v
			}
		}
		return []nodeID{out}
	default: // len, cap, delete, panic, print, println, clear, close, real, imag, complex
		for _, a := range e.Args {
			l.value(a)
		}
		return nil
	}
}

// --- small type helpers ---

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func elemTypeOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	case *types.Pointer:
		return u.Elem()
	}
	return nil
}

func keyTypeOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if m, ok := t.Underlying().(*types.Map); ok {
		return m.Key()
	}
	return nil
}

func fieldTypeByName(st *types.Struct, name string) types.Type {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i).Type()
		}
	}
	return nil
}

// declaredInSimPkg reports whether t's named type is declared in a package
// named "sim" (the kernel or a golden-test stub of it).
func declaredInSimPkg(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// funcChain formats a call chain for diagnostics: a → b → c.
func funcChain(frames []string) string {
	return strings.Join(frames, " → ")
}
