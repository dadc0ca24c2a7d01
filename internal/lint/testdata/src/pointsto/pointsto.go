// Package pointsto is engine-test input for the flow table: which function
// values and which concrete types may reach a variable. Names are globally
// unique so the engine test can locate each one through types.Info.Defs
// without scope bookkeeping.
package pointsto

type pair struct {
	a func()
	b func()
}

func fsX() {}
func fsY() {}

// fieldSensitivity: distinct fields of one struct keep distinct slots (a
// field-insensitive table would conflate them).
func fieldSensitivity() {
	fsP := pair{a: fsX, b: fsY}
	fsA := fsP.a
	fsB := fsP.b
	_, _ = fsA, fsB
}

type runner interface{ Run() }

type ibT struct{}
type ibU struct{}

func (ibT) Run() {}
func (ibU) Run() {}

// interfaceBoxing: a concrete type survives the round trip through an
// empty interface and a type assertion to another interface.
func interfaceBoxing() {
	var ibI any = ibT{}
	var ibJ any = ibU{}
	ibQ := ibI.(runner)
	_, _ = ibJ, ibQ
}

type saFn func()

func saX() {}

// sliceAppendAliasing: a function value appended to a slice is visible
// through a later index expression.
func sliceAppendAliasing() {
	saS := []saFn{}
	saS = append(saS, saX)
	saE := saS[0]
	_ = saE
}

type mvFn func(int)

func mvX(int) {}

// mapValueEscape: a value stored under one key is reachable through map
// lookups (every element of one type shares one slot).
func mapValueEscape() {
	mvM := map[string]mvFn{}
	mvM["k"] = mvX
	mvV := mvM["k"]
	_ = mvV
}
