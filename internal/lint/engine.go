package lint

// The interprocedural engine behind blockfree, hotpath and shardsafe,
// built once per driver run from the ASTs load.go type-checks. It has
// three parts:
//
//   - A call table for every function and function literal in the
//     analysis targets. A call site has a static callee (an explicit
//     instantiation f[T](…) resolves to the generic f), an interface
//     method, or the function values its callee expression may hold. An
//     interface method resolves by class-hierarchy analysis (CHA): to the
//     like-named method of every target type that implements the
//     interface.
//   - A flow table: which function values and which concrete types may
//     reach each variable, parameter, result, struct field and container
//     element. This is variable-type analysis (Sundaresan et al., OOPSLA
//     2000, the technique behind x/tools' callgraph/vta). It is
//     flow-insensitive and field-based: a field is one slot however many
//     structs hold it, and every element, map key, channel message and
//     pointee of one type shares one slot. Only slots of interface or
//     function type exist; any other value's type is its static type.
//     Calls through function values are linked as the table finds their
//     callees, to a fixed point.
//   - A type walk (reachBanned) for shardsafe, which expands an interface
//     or function slot through the flow table and a closure through its
//     free variables.
//
// DESIGN.md §9 states what the table does not track.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

type engine struct {
	funcs []*function
	byObj map[*types.Func]*function
	byLit map[*ast.FuncLit]*function
	calls map[*ast.CallExpr]*callSite

	// named holds the named types declared in the targets, CHA's universe.
	named []*types.Named
	impls map[*types.Func][]*function
	// coldIface marks interface methods annotated //simlint:coldpath,
	// sanctioned allocation boundaries for hotpath.
	coldIface map[*types.Func]bool

	slots   map[any]*slot
	edges   map[[2]*slot]bool
	canon   map[string]types.Type
	dynamic []*callSite
	work    []flowItem
}

// A function is a declared function or method, or a function literal.
type function struct {
	name     string
	body     *ast.BlockStmt
	pkg      *Package
	sig      *types.Signature
	calls    []*callSite
	hotpath  bool
	coldpath bool
	nlits    int // literals named so far, for their display names
}

// A callSite is one call. static or iface names the callee; when both are
// nil the callee is a function value and callee is its flow.
type callSite struct {
	expr   *ast.CallExpr
	static *types.Func
	iface  *types.Func
	callee flow

	args     []flow
	argTypes []types.Type
	results  []flow
	linked   map[*function]bool
}

// dynamic reports a call through a function value.
func (c *callSite) dynamic() bool { return c.static == nil && c.iface == nil }

// A value is what the flow table tracks: a declared function or method, a
// function literal, or a concrete type converted to an interface.
type value struct {
	fn  *types.Func
	lit *ast.FuncLit
	typ types.Type
}

// A slot is one entry of the flow table; succ are the slots its values
// flow on to. Both are kept in insertion order, so every walk over them,
// and every diagnostic built from one, is the same from run to run.
type slot struct {
	vals []value
	has  map[value]bool
	succ []*slot
}

// A flow is what an expression evaluates to: slots whose values it may
// hold, and values it holds outright.
type flow struct {
	slots []*slot
	vals  []value
}

type flowItem struct {
	s *slot
	v value
}

// memKey keys the slot shared by every element, map key, channel message
// and pointee of one type, by its type string.
type memKey string

// resultKey keys a dynamic call site's i'th result.
type resultKey struct {
	call *ast.CallExpr
	i    int
}

// engine returns the program's interprocedural engine, building it on
// first use; every analyzer of one driver run shares it.
func (p *Program) engine() *engine {
	if p.eng == nil {
		p.eng = buildEngine(p)
	}
	return p.eng
}

func buildEngine(prog *Program) *engine {
	e := &engine{
		byObj:     make(map[*types.Func]*function),
		byLit:     make(map[*ast.FuncLit]*function),
		calls:     make(map[*ast.CallExpr]*callSite),
		impls:     make(map[*types.Func][]*function),
		coldIface: make(map[*types.Func]bool),
		slots:     make(map[any]*slot),
		edges:     make(map[[2]*slot]bool),
		canon:     make(map[string]types.Type),
	}
	// Every declared function first, so a call links to its callee
	// whatever the order of lowering.
	for _, pkg := range prog.Targets() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					e.named = append(e.named, named)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					e.collectColdIface(pkg, decl)
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
					if decl.Body == nil || obj == nil {
						continue
					}
					fn := &function{
						name:     funcDisplayName(obj),
						body:     decl.Body,
						pkg:      pkg,
						sig:      obj.Type().(*types.Signature),
						hotpath:  hasFuncDirective(decl, dirHotpath),
						coldpath: hasFuncDirective(decl, dirColdpath),
					}
					e.byObj[obj] = fn
					e.funcs = append(e.funcs, fn)
				}
			}
		}
	}
	for _, fn := range e.funcs {
		e.lower(fn, fn.body)
	}
	// Package-level initializers, as one synthetic function per package.
	for _, pkg := range prog.Targets() {
		initFn := &function{name: pkg.ImportPath + ".init", pkg: pkg, sig: new(types.Signature)}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					e.lower(initFn, gd)
				}
			}
		}
	}
	e.solve()
	for linked := true; linked; {
		linked = false
		for _, c := range e.dynamic {
			for _, callee := range e.funcsOf(c.callee) {
				if !c.linked[callee] {
					c.linked[callee] = true
					e.link(c, callee)
					linked = true
				}
			}
		}
		e.solve()
	}
	return e
}

// collectColdIface records //simlint:coldpath on interface method
// declarations: a hotpath function may call such a method even when an
// implementation allocates, because the annotation declares the verb a
// cold boundary (the kv.Client operations, which model I/O).
func (e *engine) collectColdIface(pkg *Package, gd *ast.GenDecl) {
	if gd.Tok != token.TYPE {
		return
	}
	for _, spec := range gd.Specs {
		it, ok := spec.(*ast.TypeSpec).Type.(*ast.InterfaceType)
		if !ok || it.Methods == nil {
			continue
		}
		for _, m := range it.Methods.List {
			if !docHasDirective(m.Doc, dirColdpath) && !docHasDirective(m.Comment, dirColdpath) {
				continue
			}
			for _, name := range m.Names {
				if obj, ok := pkg.Info.Defs[name].(*types.Func); ok {
					e.coldIface[obj.Origin()] = true
				}
			}
		}
	}
}

// funcOf returns the engine's record of a declared function or method, or
// nil when obj is outside the targets or has no body.
func (e *engine) funcOf(obj *types.Func) *function { return e.byObj[obj.Origin()] }

// callees resolves a call site to the target functions it may invoke.
// Callees outside the targets resolve to nothing: the engine's soundness
// boundary (DESIGN.md §9).
func (e *engine) callees(c *callSite) []*function {
	switch {
	case c.static != nil:
		if fn := e.funcOf(c.static); fn != nil {
			return []*function{fn}
		}
		return nil
	case c.iface != nil:
		return e.implsOf(c.iface)
	}
	return e.funcsOf(c.callee)
}

// implsOf resolves an interface method by CHA: every named target type
// whose value or pointer method set implements the method's interface
// contributes its like-named method.
func (e *engine) implsOf(m *types.Func) []*function {
	m = m.Origin()
	if impls, ok := e.impls[m]; ok {
		return impls
	}
	var impls []*function
	if it, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
		for _, named := range e.named {
			if types.IsInterface(named) {
				continue
			}
			var impl types.Type = named
			if !types.Implements(impl, it) {
				if impl = types.NewPointer(named); !types.Implements(impl, it) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
			if cm, ok := obj.(*types.Func); ok {
				if fn := e.funcOf(cm); fn != nil {
					impls = append(impls, fn)
				}
			}
		}
	}
	e.impls[m] = impls
	return impls
}

// funcsOf returns the target functions a flow may hold, in the order the
// table met them.
func (e *engine) funcsOf(f flow) []*function {
	var out []*function
	seen := make(map[*function]bool)
	collect := func(vals []value) {
		for _, v := range vals {
			fn := e.byLit[v.lit]
			if v.fn != nil {
				fn = e.funcOf(v.fn)
			}
			if fn != nil && !seen[fn] {
				seen[fn] = true
				out = append(out, fn)
			}
		}
	}
	collect(f.vals)
	for _, s := range f.slots {
		collect(s.vals)
	}
	return out
}

// flowOf evaluates an expression of an analyzed package in the flow table.
func (e *engine) flowOf(info *types.Info, x ast.Expr) flow {
	return (&lowering{e: e, info: info}).flow(x)
}

// --- the flow table ---

// tracked reports whether a slot of type t is kept: only interface and
// function types (type parameters included) hold values other than their
// static type.
func tracked(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Signature:
		return true
	}
	return false
}

func (e *engine) slot(key any, t types.Type) *slot {
	if !tracked(t) {
		return nil
	}
	s := e.slots[key]
	if s == nil {
		s = &slot{has: make(map[value]bool)}
		e.slots[key] = s
	}
	return s
}

// varSlot is the slot of a variable, parameter, result or field; the
// fields and parameters of every instantiation share the generic one's.
func (e *engine) varSlot(v *types.Var) *slot { return e.slot(v.Origin(), v.Type()) }

// memSlot is the slot every element, map key, channel message and pointee
// of type t shares.
func (e *engine) memSlot(t types.Type) *slot {
	if t == nil {
		return nil
	}
	return e.slot(memKey(types.TypeString(t, nil)), t)
}

// canonical returns one types.Type per type string, so a concrete type is
// one value however many times the checker built it.
func (e *engine) canonical(t types.Type) types.Type {
	k := types.TypeString(t, nil)
	if c, ok := e.canon[k]; ok {
		return c
	}
	e.canon[k] = t
	return t
}

func (e *engine) add(s *slot, v value) {
	if s == nil || s.has[v] {
		return
	}
	s.has[v] = true
	s.vals = append(s.vals, v)
	e.work = append(e.work, flowItem{s, v})
}

func (e *engine) edge(from, to *slot) {
	if from == nil || to == nil || from == to || e.edges[[2]*slot{from, to}] {
		return
	}
	e.edges[[2]*slot{from, to}] = true
	from.succ = append(from.succ, to)
	for _, v := range from.vals {
		e.add(to, v)
	}
}

func (e *engine) solve() {
	for len(e.work) > 0 {
		it := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		for _, to := range it.s.succ {
			e.add(to, it.v)
		}
	}
}

// flowInto records that a value of static type t, evaluating to f, is
// stored in dst. A value of interface or function type passes on what it
// holds; any other value is its concrete type.
func (e *engine) flowInto(dst *slot, f flow, t types.Type) {
	if dst == nil || t == nil {
		return
	}
	if tracked(t) {
		for _, s := range f.slots {
			e.edge(s, dst)
		}
		for _, v := range f.vals {
			e.add(dst, v)
		}
		return
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	e.add(dst, value{typ: e.canonical(t)})
}

// link binds callee to call site c: arguments flow into its parameters
// and, for a call through a function value, its results into the site's.
func (e *engine) link(c *callSite, callee *function) {
	params := callee.sig.Params()
	for i, arg := range c.args {
		switch {
		case callee.sig.Variadic() && i >= params.Len()-1 && !c.expr.Ellipsis.IsValid():
			last := params.At(params.Len() - 1).Type()
			e.flowInto(e.memSlot(last.(*types.Slice).Elem()), arg, c.argTypes[i])
		case i < params.Len():
			e.flowInto(e.varSlot(params.At(i)), arg, c.argTypes[i])
		}
	}
	if c.dynamic() {
		for i, res := range c.results {
			if i < callee.sig.Results().Len() && len(res.slots) == 1 {
				e.edge(e.varSlot(callee.sig.Results().At(i)), res.slots[0])
			}
		}
	}
}

// --- lowering: one function body into call sites and flows ---

type lowering struct {
	e    *engine
	fn   *function
	info *types.Info
}

// lower records the call sites and flows of root, which belongs to fn;
// nested literals become functions of their own.
func (e *engine) lower(fn *function, root ast.Node) {
	l := &lowering{e: e, fn: fn, info: fn.pkg.Info}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			l.lit(n)
			return false
		case *ast.CallExpr:
			l.call(n)
		case *ast.AssignStmt:
			l.assign(n)
		case *ast.ValueSpec:
			l.valueSpec(n)
		case *ast.ReturnStmt:
			l.ret(n)
		case *ast.RangeStmt:
			l.rangeStmt(n)
		case *ast.SendStmt:
			l.flowExpr(e.memSlot(elemOf(l.typeOf(n.Chan))), n.Value)
		case *ast.TypeSwitchStmt:
			l.typeSwitch(n)
		case *ast.CompositeLit:
			l.compositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// &x: a store through the pointer reaches x, and x's
				// values are read through it.
				if target := l.lhs(n.X); target != nil {
					m := e.memSlot(l.typeOf(n.X))
					e.edge(target, m)
					e.edge(m, target)
				}
			}
		}
		return true
	})
}

// lit returns the function of a literal, lowering it on first use.
func (l *lowering) lit(lit *ast.FuncLit) *function {
	if fn := l.e.byLit[lit]; fn != nil {
		return fn
	}
	l.fn.nlits++
	fn := &function{
		name: fmt.Sprintf("%s$%d", l.fn.name, l.fn.nlits),
		body: lit.Body,
		pkg:  l.fn.pkg,
		sig:  l.typeOf(lit).(*types.Signature),
	}
	l.e.byLit[lit] = fn
	l.e.lower(fn, lit.Body)
	return fn
}

func (l *lowering) typeOf(e ast.Expr) types.Type { return l.info.TypeOf(e) }

// valueType is e's type, or its first component for a comma-ok form.
func (l *lowering) valueType(e ast.Expr) types.Type {
	t := l.typeOf(e)
	if tuple, ok := t.(*types.Tuple); ok && tuple.Len() > 0 {
		return tuple.At(0).Type()
	}
	return t
}

func (l *lowering) flowExpr(dst *slot, e ast.Expr) {
	if dst != nil {
		l.e.flowInto(dst, l.flow(e), l.valueType(e))
	}
}

// flow evaluates e in the flow table.
func (l *lowering) flow(e ast.Expr) flow {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return l.flow(e.X)
	case *ast.Ident:
		switch obj := l.info.ObjectOf(e).(type) {
		case *types.Var:
			return slotFlow(l.e.varSlot(obj))
		case *types.Func:
			return flow{vals: []value{{fn: obj.Origin()}}}
		}
	case *ast.SelectorExpr:
		// A field, a package member, or a method value or expression; a
		// method value of an interface is not tracked.
		if sel, ok := l.info.Selections[e]; !ok || !types.IsInterface(sel.Recv()) {
			return l.flow(e.Sel)
		}
	case *ast.CallExpr:
		if c := l.call(e); c != nil {
			if len(c.results) > 0 {
				return c.results[0]
			}
		} else if l.info.Types[ast.Unparen(e.Fun)].IsType() && len(e.Args) == 1 {
			return l.flow(e.Args[0]) // a conversion
		}
	case *ast.IndexExpr:
		if _, generic := l.typeOf(e.X).(*types.Signature); generic {
			return l.flow(e.X) // an explicit instantiation
		}
		return slotFlow(l.e.memSlot(elemOf(l.typeOf(e.X))))
	case *ast.IndexListExpr:
		return l.flow(e.X)
	case *ast.StarExpr:
		return slotFlow(l.e.memSlot(l.typeOf(e)))
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return slotFlow(l.e.memSlot(elemOf(l.typeOf(e.X))))
		}
	case *ast.TypeAssertExpr:
		return l.flow(e.X)
	case *ast.FuncLit:
		l.lit(e)
		return flow{vals: []value{{lit: e}}}
	}
	return flow{}
}

func slotFlow(s *slot) flow {
	if s == nil {
		return flow{}
	}
	return flow{slots: []*slot{s}}
}

// lhs returns the slot an assignable expression names, or nil.
func (l *lowering) lhs(e ast.Expr) *slot {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if f := l.flow(e); len(f.slots) == 1 {
			return f.slots[0]
		}
	}
	return nil
}

// call records the call site of e, linking a static or interface callee at
// once; conversions and builtins are not call sites, though append stores
// its arguments in the slice's element slot.
func (l *lowering) call(e *ast.CallExpr) *callSite {
	if c, ok := l.e.calls[e]; ok {
		return c
	}
	fun := ast.Unparen(e.Fun)
	id, _ := fun.(*ast.Ident)
	if b, builtin := l.info.Uses[id].(*types.Builtin); builtin || l.info.Types[fun].IsType() {
		l.e.calls[e] = nil
		if builtin && b.Name() == "append" && !e.Ellipsis.IsValid() {
			// append(s, x, …): each x is stored as an element of s.
			m := l.e.memSlot(elemOf(l.typeOf(e.Args[0])))
			for _, x := range e.Args[1:] {
				l.flowExpr(m, x)
			}
		}
		return nil
	}
	c := &callSite{expr: e, linked: make(map[*function]bool)}
	l.e.calls[e] = c
	l.fn.calls = append(l.fn.calls, c)

	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch x := fun.(type) {
	case *ast.Ident:
		if obj, ok := l.info.Uses[x].(*types.Func); ok {
			c.static = obj.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := l.info.Selections[x]; ok {
			if sel.Kind() == types.MethodVal {
				// The method's own receiver, not sel.Recv(): a method
				// promoted from an embedded interface is an interface call.
				m := sel.Obj().(*types.Func).Origin()
				if types.IsInterface(m.Type().(*types.Signature).Recv().Type()) {
					c.iface = m
				} else {
					c.static = m
				}
			}
		} else if obj, ok := l.info.Uses[x.Sel].(*types.Func); ok {
			c.static = obj.Origin()
		}
	}
	if c.dynamic() {
		c.callee = l.flow(ast.Unparen(e.Fun))
	}
	for _, arg := range e.Args {
		c.args = append(c.args, l.flow(arg))
		c.argTypes = append(c.argTypes, l.valueType(arg))
	}

	var callees []*function
	switch {
	case c.static != nil:
		if fn := l.e.funcOf(c.static); fn != nil {
			callees = []*function{fn}
		}
	case c.iface != nil:
		callees = l.e.implsOf(c.iface)
	default:
		sig, _ := l.typeOf(e.Fun).Underlying().(*types.Signature)
		for i := 0; sig != nil && i < sig.Results().Len(); i++ {
			c.results = append(c.results, slotFlow(l.e.slot(resultKey{e, i}, sig.Results().At(i).Type())))
		}
		l.e.dynamic = append(l.e.dynamic, c)
		return c
	}
	for _, callee := range callees {
		l.e.link(c, callee)
		for i := 0; i < callee.sig.Results().Len(); i++ {
			if i == len(c.results) {
				c.results = append(c.results, flow{})
			}
			if s := l.e.varSlot(callee.sig.Results().At(i)); s != nil {
				c.results[i].slots = append(c.results[i].slots, s)
			}
		}
	}
	return c
}

func (l *lowering) assign(st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		return // op-assignments move no function values
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			l.flowExpr(l.lhs(lhs), st.Rhs[i])
		}
		return
	}
	l.multi(st.Lhs, st.Rhs[0])
}

// multi assigns a multi-valued right-hand side: a call's results, or the
// value of a comma-ok form.
func (l *lowering) multi(lhs []ast.Expr, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		l.flowExpr(l.lhs(lhs[0]), rhs)
		return
	}
	c := l.call(call)
	tuple, _ := l.typeOf(call).(*types.Tuple)
	for i, x := range lhs {
		if c != nil && tuple != nil && i < len(c.results) {
			l.e.flowInto(l.lhs(x), c.results[i], tuple.At(i).Type())
		}
	}
}

func (l *lowering) valueSpec(vs *ast.ValueSpec) {
	names := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		names[i] = n
	}
	switch {
	case len(vs.Values) == len(names):
		for i, name := range names {
			l.flowExpr(l.lhs(name), vs.Values[i])
		}
	case len(vs.Values) == 1:
		l.multi(names, vs.Values[0])
	}
}

func (l *lowering) ret(st *ast.ReturnStmt) {
	res := l.fn.sig.Results()
	if len(st.Results) == 1 && res.Len() > 1 {
		if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
			if c := l.call(call); c != nil {
				for i := 0; i < res.Len() && i < len(c.results); i++ {
					l.e.flowInto(l.e.varSlot(res.At(i)), c.results[i], res.At(i).Type())
				}
			}
		}
		return
	}
	for i, x := range st.Results {
		if i < res.Len() {
			l.flowExpr(l.e.varSlot(res.At(i)), x)
		}
	}
}

func (l *lowering) rangeStmt(st *ast.RangeStmt) {
	t := l.typeOf(st.X)
	if t == nil {
		return
	}
	key, val := st.Key, st.Value
	switch u := t.Underlying().(type) {
	case *types.Map:
		l.e.flowInto(l.lhs(key), slotFlow(l.e.memSlot(u.Key())), u.Key())
	case *types.Chan:
		key, val = nil, key
	case *types.Signature:
		return // range over a function iterator is not tracked
	}
	if val != nil {
		et := elemOf(t)
		l.e.flowInto(l.lhs(val), slotFlow(l.e.memSlot(et)), et)
	}
}

func (l *lowering) typeSwitch(st *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := st.Assign.(type) {
	case *ast.AssignStmt: // v := x.(type)
		x = a.Rhs[0].(*ast.TypeAssertExpr).X
	default:
		return // no clause variable to narrow
	}
	f, t := l.flow(x), l.typeOf(x)
	for _, cc := range st.Body.List {
		if v, ok := l.info.Implicits[cc].(*types.Var); ok {
			l.e.flowInto(l.e.varSlot(v), f, t)
		}
	}
}

func (l *lowering) compositeLit(lit *ast.CompositeLit) {
	t := l.typeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if f, ok := l.info.ObjectOf(kv.Key.(*ast.Ident)).(*types.Var); ok {
					l.flowExpr(l.e.varSlot(f), kv.Value)
				}
			} else if i < u.NumFields() {
				l.flowExpr(l.e.varSlot(u.Field(i)), el)
			}
		}
	case *types.Map:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				l.flowExpr(l.e.memSlot(u.Key()), kv.Key)
				l.flowExpr(l.e.memSlot(u.Elem()), kv.Value)
			}
		}
	case *types.Slice, *types.Array:
		m := l.e.memSlot(elemOf(t))
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			l.flowExpr(m, el)
		}
	}
}

// elemOf is the element type of a slice, array, map or channel, or of
// the array a pointer points to, or nil.
func elemOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem() // a pointer to an array indexes and ranges as the array
	}
	if c, ok := t.Underlying().(interface{ Elem() types.Type }); ok {
		return c.Elem()
	}
	return nil
}

func funcDisplayName(obj *types.Func) string {
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := baseNamed(recv.Type()).(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Name(), named.Obj().Name(), obj.Name())
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// --- the type walk (shardsafe) ---

type reachStep struct {
	t    types.Type
	s    *slot // the slot the value sits in, when t is an interface or func
	path string
}

// reachBanned walks everything reachable from v: pointees, struct fields,
// elements, the concrete types and function values the flow table lets
// into an interface or function slot, and a closure's captures. It returns
// the display name of the first sending-side kernel object
// (*sim.Proc/Kernel/Shard/ShardGroup) it meets, with the access path.
//
// Inside a sim-declared struct it walks only the payload: fields whose
// declared type mentions no sim-declared named type and no func type. A
// kernel handle such as Future carries a back-pointer to its kernel, and
// holding the handle is the sanctioned API; its type-parameter field
// (Future.val) is payload, walked at the instantiated type.
func (e *engine) reachBanned(v *types.Var) (name, path string, ok bool) {
	queue := []reachStep{{v.Type(), e.varSlot(v), v.Name()}}
	seen := make(map[any]bool) // slots, and the type strings of other steps
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		var key any = st.s
		if st.s == nil {
			key = types.TypeString(st.t, nil)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if bn := bannedShardType(st.t); bn != "" {
			return bn, st.path, true
		}
		next := func(t types.Type, s *slot, path string) {
			if tracked(t) && s == nil {
				return // nothing is known to reach the slot
			}
			queue = append(queue, reachStep{t, s, path})
		}
		switch u := st.t.Underlying().(type) {
		case *types.Pointer:
			next(u.Elem(), e.memSlot(u.Elem()), st.path)
		case *types.Struct:
			simOwned := declaredInSimPkg(baseNamed(st.t))
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if !carriesPointers(f.Type()) || simOwned && typeMentionsSimOrFunc(f.Origin().Type()) {
					continue
				}
				next(f.Type(), e.varSlot(f), st.path+"."+f.Name())
			}
		case *types.Slice, *types.Array:
			next(elemOf(u), e.memSlot(elemOf(u)), st.path+"[i]")
		case *types.Map:
			next(u.Key(), e.memSlot(u.Key()), st.path+"[key]")
			next(u.Elem(), e.memSlot(u.Elem()), st.path+"[val]")
		case *types.Chan:
			next(u.Elem(), e.memSlot(u.Elem()), st.path+"<-")
		case *types.Interface, *types.Signature:
			for _, val := range st.s.vals {
				switch {
				case val.lit != nil:
					for _, fv := range freeVarsOf(e.byLit[val.lit].pkg.Info, val.lit) {
						next(fv.Type(), e.varSlot(fv), st.path+" captures "+fv.Name())
					}
				case val.typ != nil:
					next(val.typ, nil, st.path)
				}
			}
		}
	}
	return "", "", false
}

// freeVarsOf collects the variables referenced inside lit but declared
// outside it: the closure's captures.
func freeVarsOf(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if ok && !v.IsField() && !seen[v] && declaredOutside(lit, v) {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// carriesPointers reports whether a value of type t can hold anything the
// walk follows; scalar fields are pruned.
// A struct or array cannot contain itself, so the recursion ends.
func carriesPointers(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesPointers(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesPointers(u.Elem())
	}
	return true
}

// baseNamed unwraps a pointer to reach a named type, or nil.
func baseNamed(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}

// declaredInSimPkg reports whether t's named type is declared in a package
// named "sim" (the kernel or a golden-test stub of it).
func declaredInSimPkg(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "sim"
}

// typeMentionsSimOrFunc reports whether t's structure involves a
// sim-declared named type or a function type: the sign that a field of a
// kernel handle is plumbing (back-pointers, parked waiters, stored
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
	case *types.Map:
		return typeMentions(u.Key(), depth+1, seen) || typeMentions(u.Elem(), depth+1, seen)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		return typeMentions(u.Elem(), depth+1, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeMentions(u.Field(i).Type(), depth+1, seen) {
				return true
			}
		}
	}
	return false
}
