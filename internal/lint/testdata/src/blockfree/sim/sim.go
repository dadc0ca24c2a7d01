// Package sim is a minimal stub of the real sim kernel's process-spawning
// surface for blockfree golden tests. The analyzer recognizes the spawn
// APIs and the trusted park points by package name, so this stub exercises
// the same recognition paths without the testdata module depending on the
// kernel.
package sim

// Duration mirrors sim.Duration.
type Duration int64

// Kernel mirrors the process-spawning surface.
type Kernel struct{}

// Spawn mirrors structured process spawning.
func (k *Kernel) Spawn(name string, fn func(*Proc)) {}

// Go mirrors detached process spawning.
func (k *Kernel) Go(name string, fn func(*Proc)) {}

// After mirrors deferred event scheduling.
func (k *Kernel) After(d Duration, fn func()) {}

// Proc mirrors a simulated process handle; Sleep is a virtual-time park
// point and therefore trusted.
type Proc struct{}

// Sleep parks the process in virtual time.
func (p *Proc) Sleep(d Duration) {}

// Shard mirrors one member of a sharded kernel group.
type Shard struct{}

// Send mirrors cross-shard delivery; the fn argument is a root.
func (s *Shard) Send(dst int, delay Duration, fn func(*Shard)) {}

// Future mirrors an async completion handle.
type Future struct{}

// Await parks the calling process until completion (trusted park point).
func (f *Future) Await(p *Proc) {}
