// Package lint implements simlint, a static-analysis suite that enforces
// the simulator's determinism, hot-path, and hook invariants.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can be rehosted on the real framework —
// and run under `go vet -vettool` — the moment the x/tools dependency is
// available. This build environment is offline with an empty module cache,
// so the driver here is self-contained: packages are enumerated with
// `go list -deps -json` and type-checked from source with go/types (see
// load.go), which is exactly what x/tools' source importer does.
//
// Seven analyzers ship today (All):
//
//   - detwalk:     nondeterminism sources in sim-reachable packages (wall
//     clock, global math/rand, order-dependent map iteration, multi-case
//     select),
//   - hookguard:   calls through nullable hook/callback fields must be
//     dominated by a nil check,
//   - hotpath:     functions marked //simlint:hotpath may not allocate via
//     defer, closures, fmt, string concatenation, or interface boxing,
//   - seedflow:    every rand.New must be traceable to a seed parameter or
//     Options.Seed-style field,
//   - shardsafe:   cross-shard delivery closures must not capture or reach
//     the sending shard's kernel objects,
//   - blockfree:   process bodies handed to the kernel must not block the
//     OS thread; virtual waits go through sim park points,
//   - ignoreaudit: every //simlint:ignore directive must still suppress a
//     live diagnostic (implemented in run.go, not as a pass).
//
// False positives are suppressed in place with
//
//	//simlint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory. See
// DESIGN.md "Static invariants" for the invariant taxonomy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The scope check lives in the driver so
	// golden tests (whose testdata packages have synthetic import paths)
	// can exercise an analyzer unconditionally.
	AppliesTo func(importPath string) bool
	// Run performs the analysis over one package.
	Run func(*Pass) error
}

// A Pass is the interface between the driver and one Analyzer.Run call on
// one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// HookTypes holds the qualified names ("pkg/path.TypeName") of types
	// whose declaration carries //simlint:hook; method calls through a
	// pointer to such a type require a dominating nil check.
	HookTypes map[string]bool
	// Prog is the whole loaded program; blockfree, hotpath and shardsafe
	// reach the shared call and flow tables through Prog.engine().
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding, with its position resolved so the
// driver can sort and suppression-filter without the FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// funcObj resolves the called function or method of call, or nil for
// builtins, type conversions, and calls through function values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvName is the name of the named type a method's receiver is (or
// points to), or "" for a function.
func recvName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := baseNamed(recv.Type()).(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return ""
}

// isPkgFunc reports whether obj is the named package-level function (or
// method) path.name.
func isPkgFunc(obj *types.Func, path, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
