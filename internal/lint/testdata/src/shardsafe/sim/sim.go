// Package sim is a minimal stub of the real sim kernel's sharding types
// for shardsafe golden tests. The analyzer matches Shard.Send and the
// banned capture types by package name, so the stub exercises the same
// recognition paths as the real package without the testdata module
// depending on the kernel.
package sim

// Duration mirrors sim.Duration.
type Duration int64

// Kernel mirrors the member-kernel handle a delivery can reach through the
// destination shard.
type Kernel struct{}

// Go mirrors detached process spawning.
func (k *Kernel) Go(name string, fn func(*Proc)) {}

// Proc mirrors a simulated process handle.
type Proc struct{ k *Kernel }

// Kernel returns the process's kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// ShardGroup mirrors the group coordinator.
type ShardGroup struct{ shards []*Shard }

// Shard returns the i'th member.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Shard mirrors one member of a group.
type Shard struct {
	g  *ShardGroup
	id int
	k  *Kernel
}

// ID returns the shard's index.
func (s *Shard) ID() int { return s.id }

// Kernel returns the shard's member kernel.
func (s *Shard) Kernel() *Kernel { return s.k }

// Group returns the owning group.
func (s *Shard) Group() *ShardGroup { return s.g }

// Send mirrors the cross-shard delivery API the analyzer guards.
func (s *Shard) Send(dst int, delay Duration, fn func(*Shard)) {}

// Handle is a method whose value has the delivery signature, for the
// method-value test case.
func (s *Shard) Handle(ds *Shard) {}

// Future mirrors the kernel's generic completion handle: the back-pointer
// and the parked waiter are plumbing, val is the payload.
type Future[T any] struct {
	k      *Kernel
	done   bool
	val    T
	waiter *Proc
}

// NewFuture returns an unset future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] { return &Future[T]{k: k} }

// Set completes the future with v.
func (f *Future[T]) Set(v T) { f.val, f.done = v, true }

// Value returns the future's value and whether it has been set.
func (f *Future[T]) Value() (T, bool) { return f.val, f.done }
