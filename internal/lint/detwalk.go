package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detwalk flags nondeterminism sources in sim-reachable packages. Every
// figure in the paper reproduction depends on a run being bit-identical
// given its seed, at every -parallel setting; the simulation must therefore
// never observe the host: no wall clock, no global math/rand (only RNGs
// threaded from the kernel's splitmix64-seeded streams), no map iteration
// whose order can leak into scheduling or output, and no multi-case select
// (the runtime picks among ready cases pseudorandomly).
var Detwalk = &Analyzer{
	Name:      "detwalk",
	Doc:       "flag wall-clock time, global math/rand, order-dependent map iteration, and multi-case select in sim-reachable packages",
	AppliesTo: simReachable,
	Run:       runDetwalk,
}

// simReachable reports whether a package's code executes inside (or
// aggregates results of) deterministic simulations: everything under
// internal/ but the linter itself. The scope is derived, not listed, so a
// new internal package — or code moved into one — is covered from its
// first commit.
func simReachable(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, "cloudbench/internal/")
	return ok && rest != "lint" && !strings.HasPrefix(rest, "lint/")
}

// wallClockFuncs are the package time functions that observe or wait on the
// host clock. time.Duration arithmetic and constants stay legal: kernel
// durations are virtual but share the type.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"Sleep": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// randConstructors are the math/rand functions that build a generator from
// an explicit source; everything else on the package is the shared global
// generator (or reseeds it) and is banned in sim-reachable code.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDetwalk(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDetCall(pass, n)
				case *ast.SelectStmt:
					if len(n.Body.List) >= 2 {
						pass.Reportf(n.Pos(), "select with %d cases: the runtime picks among ready cases pseudorandomly; simulation code must block through the kernel", len(n.Body.List))
					}
				case *ast.RangeStmt:
					if isMapType(pass, n.X) {
						checkMapRange(pass, n, fn)
					}
				}
				return true
			})
		}
	}
	return nil
}

func checkDetCall(pass *Pass, call *ast.CallExpr) {
	obj := funcObj(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			pass.Reportf(call.Pos(), "time.%s observes the host clock; simulation code must use virtual time (sim.Kernel.Now / Proc.Now / Proc.Sleep)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand (receiver != nil) are fine — those are
		// explicitly threaded generators; only package-level functions
		// hit the shared global state.
		if obj.Type().(*types.Signature).Recv() == nil && !randConstructors[obj.Name()] {
			pass.Reportf(call.Pos(), "global rand.%s is seeded per-process and shared; thread a *rand.Rand from the kernel (sim.Kernel.Rand / Proc.Rand) instead", obj.Name())
		}
	}
}

func isMapType(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange vets one `range` over a map. Iteration order is
// randomized, so the body may only do order-insensitive work:
//
//   - integer counters (n++, n += v, bitwise-assign),
//   - writes into another map (per-key, order independent),
//   - delete on a map,
//   - appends into slices that are deterministically sorted later in the
//     enclosing function,
//   - nested loops/ifs composed of the same.
//
// Anything else — early returns, float accumulation, calls with side
// effects — can leak iteration order into scheduling or output and is
// flagged; iterate a sorted key slice instead, or suppress with
// //simlint:ignore detwalk <reason> if the order provably cannot escape.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl) {
	var appendTargets []types.Object
	reason := mapRangeBodyVerdict(pass, rng.Body.List, &appendTargets)
	if reason == "" {
		for _, obj := range appendTargets {
			if !sortedAfter(pass, enclosing, rng, obj) {
				reason = "appends to " + obj.Name() + " without a deterministic sort afterwards"
				break
			}
		}
	}
	if reason != "" {
		pass.Reportf(rng.Pos(), "map iteration order is randomized and this body %s; iterate a sorted key slice or make the body order-insensitive", reason)
	}
}

// mapRangeBodyVerdict returns "" when every statement is order-insensitive,
// or a description of the first offending statement.
func mapRangeBodyVerdict(pass *Pass, stmts []ast.Stmt, appendTargets *[]types.Object) string {
	for _, stmt := range stmts {
		if r := mapRangeStmtVerdict(pass, stmt, appendTargets); r != "" {
			return r
		}
	}
	return ""
}

func mapRangeStmtVerdict(pass *Pass, stmt ast.Stmt, appendTargets *[]types.Object) string {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		if isIntegerExpr(pass, s.X) {
			return ""
		}
		return "modifies non-integer state"
	case *ast.AssignStmt:
		return mapRangeAssignVerdict(pass, s, appendTargets)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && funcObj(pass.TypesInfo, call) == nil {
				return ""
			}
		}
		return "calls a function whose effects may depend on iteration order"
	case *ast.IfStmt:
		if hasCall(pass, s.Cond) {
			return "calls a function in a branch condition"
		}
		if isMinMaxUpdate(s) {
			return "" // if v > max { max = v }: order-insensitive
		}
		if r := mapRangeBodyVerdict(pass, s.Body.List, appendTargets); r != "" {
			return r
		}
		if s.Else != nil {
			return mapRangeStmtVerdict(pass, s.Else, appendTargets)
		}
		return ""
	case *ast.BlockStmt:
		return mapRangeBodyVerdict(pass, s.List, appendTargets)
	case *ast.RangeStmt:
		return mapRangeBodyVerdict(pass, s.Body.List, appendTargets)
	case *ast.ForStmt:
		return mapRangeBodyVerdict(pass, s.Body.List, appendTargets)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return "exits the loop early (which element is last depends on order)"
	case *ast.ReturnStmt:
		// An existential check (`return true` / `return 0, false`) yields
		// the same value whichever element triggers it; returning
		// anything derived from the element leaks iteration order.
		for _, res := range s.Results {
			if tv, ok := pass.TypesInfo.Types[res]; !ok || tv.Value == nil {
				return "returns from inside the iteration"
			}
		}
		return ""
	case *ast.DeclStmt:
		return ""
	default:
		return "has order-dependent statements"
	}
}

func mapRangeAssignVerdict(pass *Pass, s *ast.AssignStmt, appendTargets *[]types.Object) string {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.AND_NOT_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN, token.MUL_ASSIGN:
		if len(s.Lhs) == 1 && isIntegerExpr(pass, s.Lhs[0]) {
			return ""
		}
		// Float accumulation is the classic silent killer: x += v sums in
		// iteration order and float addition is not associative, so the
		// bits of the total differ run to run.
		return "accumulates non-integer values (order changes the result bits)"
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(pass, ix.X) {
				continue // per-key write into another map
			}
			// s = append(s, ...): provisionally fine, must be sorted
			// later in the enclosing function.
			if i < len(s.Rhs) {
				if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && funcObj(pass.TypesInfo, call) == nil {
						if target, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							if obj := pass.TypesInfo.ObjectOf(target); obj != nil {
								*appendTargets = append(*appendTargets, obj)
								continue
							}
						}
					}
				}
			}
			return "assigns last-iterated values to shared state"
		}
		return ""
	default:
		return "has order-dependent assignments"
	}
}

func isIntegerExpr(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func hasCall(pass *Pass, x ast.Expr) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && funcObj(pass.TypesInfo, call) == nil {
				switch id.Name {
				case "len", "cap", "min", "max": // pure builtins
					return true
				}
			}
			found = true
		}
		return !found
	})
	return found
}

// isMinMaxUpdate matches the running-extremum idiom
// `if v > best { best = v }` (any comparison direction): whichever element
// wins, the final extremum is the same.
func isMinMaxUpdate(s *ast.IfStmt) bool {
	if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	cmp, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.GTR, token.LSS, token.GEQ, token.LEQ:
	default:
		return false
	}
	assign, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, rhs := types.ExprString(assign.Lhs[0]), types.ExprString(assign.Rhs[0])
	x, y := types.ExprString(cmp.X), types.ExprString(cmp.Y)
	return (lhs == x && rhs == y) || (lhs == y && rhs == x)
}

// sortedAfter reports whether the enclosing function deterministically
// sorts obj (a slice fed by a map-range append) after the range statement:
// any sort.* / slices.Sort* call mentioning obj counts.
func sortedAfter(pass *Pass, enclosing *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fobj := funcObj(pass.TypesInfo, call)
		if fobj == nil || fobj.Pkg() == nil {
			return true
		}
		pkg, name := fobj.Pkg().Path(), fobj.Name()
		// Local helpers wrapping sort (sortKeys, sortReplicas, ...) count
		// as long as their name says so.
		isSort := (pkg == "sort" && name != "Search") ||
			(pkg == "slices" && strings.HasPrefix(name, "Sort")) ||
			strings.Contains(strings.ToLower(name), "sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
