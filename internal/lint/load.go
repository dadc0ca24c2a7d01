package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// A Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Standard   bool // part of the standard library
	DepOnly    bool // loaded only as a dependency, never analyzed
	Files      []*ast.File
	Types      *types.Package
	// Info is populated for analysis targets only (DepOnly packages are
	// type-checked without recording use/type maps).
	Info *types.Info
}

// A Program is the load result: every package reachable from the requested
// patterns, in dependency order (dependencies before dependents).
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// eng caches the interprocedural engine (engine.go), built on first
	// use, so every analyzer in one driver run shares one call table and
	// one flow table.
	eng *engine
}

// Targets returns the packages that matched the load patterns (everything
// except pure dependencies), in load order.
func (p *Program) Targets() []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		if !pkg.DepOnly && !pkg.Standard {
			out = append(out, pkg)
		}
	}
	return out
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// Load enumerates the packages matching patterns with `go list -deps -json`
// and type-checks them from source. dir is the working directory for the go
// command ("" means the current directory); patterns are anything go list
// accepts (./..., import paths, a single directory).
//
// CGO_ENABLED=0 is forced so every standard-library package resolves to its
// pure-Go file set and the whole dependency closure type-checks without a C
// toolchain — the same trick x/tools' source importer relies on.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Standard,DepOnly,GoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	prog := &Program{Fset: token.NewFileSet()}
	imported := map[string]*types.Package{"unsafe": types.Unsafe}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := imported[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("package %q not loaded", path)
	})
	sizes := types.SizesFor("gc", runtime.GOARCH)

	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.ImportPath == "unsafe" {
			continue
		}
		pkg := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Standard:   lp.Standard,
			DepOnly:    lp.DepOnly,
		}
		target := !lp.DepOnly && !lp.Standard
		mode := parser.SkipObjectResolution
		if target {
			// Comments carry the //simlint: directives.
			mode |= parser.ParseComments
		}
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, f), nil, mode)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", filepath.Join(lp.Dir, f), err)
			}
			pkg.Files = append(pkg.Files, af)
		}
		var typeErrs []error
		conf := &types.Config{
			Importer: imp,
			Sizes:    sizes,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		if target {
			pkg.Info = &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Uses:       make(map[*ast.Ident]types.Object),
				Defs:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				// Implicits carries type-switch case variables, which the
				// flow table narrows from the switched value.
				Implicits: make(map[ast.Node]types.Object),
			}
		}
		tpkg, _ := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
		// Dependencies (in particular deep runtime internals) may trip
		// go/types where the real compiler is lenient; tolerate errors
		// there and insist only that analysis targets check cleanly.
		if target && len(typeErrs) > 0 {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, typeErrs[0])
		}
		pkg.Types = tpkg
		imported[lp.ImportPath] = tpkg
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
