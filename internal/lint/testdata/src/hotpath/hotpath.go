// Package hotpath is golden-test input for the hotpath analyzer.
package hotpath

import "fmt"

type ring struct {
	buf   []int
	label string
	flush func()
}

func sink(any)       {}
func take(p *ring)   {}
func useIface(x any) {}

//simlint:hotpath
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) // plain append: ok
}

//simlint:hotpath
func (r *ring) deferred() {
	defer fmt.Println("done") // want `defer in hot path` `fmt\.Println in hot path`
	r.buf = r.buf[:0]
}

//simlint:hotpath
func (r *ring) closes(v int) {
	r.flush = func() { r.push(v) } // want `closure allocated in hot path`
}

//simlint:hotpath
func (r *ring) concat(s string) {
	r.label = r.label + s // want `string concatenation in hot path`
	r.label += "!"        // want `string concatenation in hot path`
}

//simlint:hotpath
func (r *ring) boxes(v int, p *ring) {
	useIface(v)   // want `boxes a non-pointer value`
	useIface(p)   // pointers share the interface word: ok
	useIface(nil) // nil: ok
	_ = any(v)    // want `conversion to interface`
	take(p)       // concrete parameter: ok
}

// Filling a record the caller supplies (storage's Row.ProjectInto): clearing
// a map and storing into it are not allocation sites the analyzer tracks, and
// neither is the make behind the nil entry — an alloc gate proves the reuse.
//
//simlint:hotpath
func (r *ring) fill(into map[int]int) map[int]int {
	clear(into)
	if into == nil {
		into = make(map[int]int, len(r.buf)) // sized once, for the caller without a map: ok
	}
	for i, v := range r.buf {
		into[i] = v // store into a map that has held this many keys: ok
	}
	return into
}

// Unmarked functions may do all of this freely.
func coldPath(r *ring) string {
	defer fmt.Println("cold")
	return fmt.Sprintf("%v", r.buf)
}

//simlint:hotpath
func (r *ring) suppressedColdError(err error) {
	//simlint:ignore hotpath the error branch is cold by construction
	fmt.Println(err)
}

// A closure that does not escape is excused where it is written, in the hot
// callee (storage's SSTable.Get and its sort.Search), not at each hot caller
// up the chain (Engine.GetInto, Host.Get, ...).

func search(n int, f func(int) bool) int {
	for i := 0; i < n; i++ {
		if f(i) {
			return i
		}
	}
	return n
}

//simlint:hotpath
func (r *ring) find(v int) int {
	//simlint:ignore hotpath the closure handed to search does not escape
	return search(len(r.buf), func(i int) bool { return r.buf[i] >= v })
}

//simlint:hotpath
func (r *ring) callsFind(v int) {
	_ = r.find(v) // a hot callee is checked at its own declaration: ok
}

func (r *ring) coldFind(v int) int {
	return search(len(r.buf), func(i int) bool { return r.buf[i] >= v })
}

//simlint:hotpath
func (r *ring) callsColdFind(v int) {
	_ = r.coldFind(v) // want `call in hot path callsColdFind reaches an allocating callee: \(hotpath\.ring\)\.coldFind allocates a closure`
}

// --- interprocedural cases (PR 8): the hot function's own body is clean,
// but a callee somewhere down the call graph allocates. ---

func cleanHelper(r *ring, v int) { r.buf = append(r.buf, v) }

func chainOuter(r *ring) { chainInner(r) }

func chainInner(r *ring) { r.label = fmt.Sprintf("%d", len(r.buf)) }

//simlint:coldpath
func sanctionedFormat(r *ring) string { return fmt.Sprintf("%v", r.buf) }

//simlint:hotpath
func (r *ring) callsClean(v int) {
	cleanHelper(r, v) // alloc-free callee: ok
}

//simlint:hotpath
func (r *ring) callsChain() {
	chainOuter(r) // want `call in hot path callsChain reaches an allocating callee: hotpath\.chainOuter → hotpath\.chainInner formats via fmt\.Sprintf`
}

//simlint:hotpath
func (r *ring) callsColdpath() {
	_ = sanctionedFormat(r) // coldpath-annotated boundary: ok
}

// store is an interface verb whose implementations allocate by design;
// the get method is annotated as a sanctioned boundary, put is not.
type store interface {
	//simlint:coldpath
	get(key string) string
	put(key string)
}

type mapStore struct{ m map[string]string }

func (s *mapStore) get(key string) string { return s.m["pfx"+key] }

func (s *mapStore) put(key string) { s.m[key] = "v" + key }

//simlint:hotpath
func (r *ring) callsIface(s store) {
	_ = s.get("k") // coldpath interface method: ok
	s.put("k")     // want `call in hot path callsIface reaches an allocating callee: \(hotpath\.mapStore\)\.put concatenates strings`
}

// --- a pooled fan-out (sim.Op): each leg is built once per slot with its
// body bound then, so handing one out and spawning its body allocates
// nothing; a closure spawned beside it allocates per call. ---

type kernel struct{}

func (k *kernel) Go(name string, fn func()) {}

type op[L any] struct {
	legs []*L
	used int
}

//simlint:hotpath
func (o *op[L]) Leg(build func() *L) *L {
	if o.used == len(o.legs) {
		o.legs = append(o.legs, build())
	}
	o.used++
	return o.legs[o.used-1]
}

type fanout struct {
	op[leg]
	k *kernel
}

type leg struct {
	f   *fanout
	run func() // deliver, bound once
}

//simlint:coldpath
func (f *fanout) newLeg() *leg {
	l := &leg{f: f}
	l.run = l.deliver
	return l
}

func (l *leg) deliver() {}

//simlint:hotpath
func (f *fanout) send(n int) {
	for i := 0; i < n; i++ {
		f.k.Go("leg", f.Leg(f.newLeg).run) // a pooled leg's bound body: ok
	}
	f.k.Go("closure", func() { f.send(0) }) // want `closure allocated in hot path send`
}
