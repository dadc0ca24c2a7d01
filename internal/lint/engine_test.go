package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// findVar locates the unique variable named name among the target
// packages' definitions (the pointsto testdata keeps names globally
// unique for exactly this purpose).
func findVar(t *testing.T, prog *Program, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for _, pkg := range prog.Targets() {
		for _, obj := range pkg.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || v.Name() != name {
				continue
			}
			if found != nil {
				t.Fatalf("variable %q defined more than once in testdata", name)
			}
			found = v
		}
	}
	if found == nil {
		t.Fatalf("variable %q not found in testdata", name)
	}
	return found
}

// describeValue names a flow-table value: a function by its name, a
// concrete type by its type name.
func describeValue(v value) string {
	switch {
	case v.fn != nil:
		return v.fn.Name()
	case v.lit != nil:
		return "func literal"
	case v.typ != nil:
		if named, ok := v.typ.(*types.Named); ok {
			return named.Obj().Name()
		}
		return v.typ.String()
	}
	return "<none>"
}

// TestPointsToCore exercises the flow table directly, one subtest per
// precision property the analyzers depend on: which function values and
// concrete types may reach a variable.
func TestPointsToCore(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "pointsto"), ".")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	e := prog.engine()

	holds := func(t *testing.T, v, target string) ([]string, bool) {
		t.Helper()
		var names []string
		found := false
		if s := e.varSlot(findVar(t, prog, v)); s != nil {
			for _, val := range s.vals {
				name := describeValue(val)
				names = append(names, name)
				found = found || name == target
			}
		}
		return names, found
	}
	mustHold := func(t *testing.T, v, target string) {
		t.Helper()
		if names, ok := holds(t, v, target); !ok {
			t.Errorf("%s should hold %s; flow-table slot: %v", v, target, names)
		}
	}
	mustNotHold := func(t *testing.T, v, target string) {
		t.Helper()
		if names, ok := holds(t, v, target); ok {
			t.Errorf("%s must not hold %s (precision loss); flow-table slot: %v", v, target, names)
		}
	}

	t.Run("field sensitivity", func(t *testing.T) {
		mustHold(t, "fsA", "fsX")
		mustHold(t, "fsB", "fsY")
		mustNotHold(t, "fsA", "fsY")
		mustNotHold(t, "fsB", "fsX")
	})
	t.Run("interface boxing", func(t *testing.T) {
		mustHold(t, "ibQ", "ibT")
		mustNotHold(t, "ibQ", "ibU")
	})
	t.Run("slice append aliasing", func(t *testing.T) {
		mustHold(t, "saE", "saX")
		mustNotHold(t, "saE", "mvX")
	})
	t.Run("map value escape", func(t *testing.T) {
		mustHold(t, "mvV", "mvX")
		mustNotHold(t, "mvV", "saX")
	})
}
