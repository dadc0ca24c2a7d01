package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Blockfree proves that simulated process bodies never block the host OS
// thread. The kernel multiplexes thousands of simulated processes onto a
// small worker pool; a process body that hits a real blocking primitive —
// time.Sleep, a bare channel operation, a sync.Mutex, OS or network I/O —
// stalls a worker the scheduler believes is runnable. In the best case
// that serializes the simulation; in the worst (every worker blocked on
// state only a parked process can advance) it deadlocks the DES outright,
// and a future wall-clock-slaved servebench mode would do exactly that on
// the first stray time.Sleep. Virtual waiting must go through the
// kernel's own park points (Proc.Sleep, Future.Await, queue waits), which
// live in the sim package and are exempt.
//
// The check is interprocedural (engine.go): the bodies handed to
// Kernel.Spawn/Go, Kernel.After and Shard.Send are roots, whether written
// as a literal, a named function, a method value or a variable or field
// that holds one, and the analyzer follows the call table through any
// number of helper frames: static calls, interface calls resolved by CHA,
// and calls through function values resolved by the flow table. Calls
// that resolve outside the analyzed packages are trusted unless they are
// themselves a known blocking primitive — the engine's soundness boundary
// (DESIGN.md §9).
var Blockfree = &Analyzer{
	Name:      "blockfree",
	Doc:       "process bodies handed to the kernel must not block the OS thread; virtual waits go through sim park points",
	AppliesTo: simReachable,
	Run:       runBlockfree,
}

func runBlockfree(pass *Pass) error {
	bf := &blockChecker{e: pass.Prog.engine(), summaries: make(map[*function]*blockFact)}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := funcObj(pass.TypesInfo, call)
			argIdx, rootKind := simProcessRootArg(obj)
			if argIdx < 0 || argIdx >= len(call.Args) {
				return true
			}
			arg := ast.Unparen(call.Args[argIdx])
			for _, root := range bf.e.funcsOf(bf.e.flowOf(pass.TypesInfo, arg)) {
				if root.pkg.Types.Name() == "sim" {
					continue // the kernel's own machinery is the trust anchor
				}
				if fact := bf.blockingOf(root); fact != nil {
					pass.Reportf(arg.Pos(), "%s body may block the OS thread: %s (%s); wait in virtual time through sim park points instead",
						rootKind, fact.op, fact.chainText())
				}
			}
			return true
		})
	}
	return nil
}

// simProcessRootArg reports which argument of a sim-kernel call is a
// process body (function) the simulator will execute, and a display name
// for the root kind; index -1 means fn is not a process-spawning API.
// Matching is by package name so golden-test stubs exercise the analyzer.
func simProcessRootArg(fn *types.Func) (int, string) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "sim" {
		return -1, ""
	}
	switch recvName(fn) + "." + fn.Name() {
	case "Kernel.Spawn", "Kernel.Go":
		return 1, "process"
	case "Kernel.After":
		return 1, "event callback"
	case "Shard.Send":
		return 2, "cross-shard delivery"
	}
	return -1, ""
}

// blockFact describes one way a function can block: the primitive, where,
// and the call chain from the summarized function down to it.
type blockFact struct {
	op    string
	pos   token.Pos
	chain []string // callee names from the summarized function inward
}

func (f *blockFact) chainText() string {
	if len(f.chain) == 0 {
		return "directly in the body"
	}
	return "via " + strings.Join(f.chain, " → ")
}

type blockChecker struct {
	e         *engine
	summaries map[*function]*blockFact
}

// blockingOf returns how fn (or anything it can reach) blocks the OS
// thread, or nil. Summaries are memoized; in-progress frames (recursion)
// are optimistically treated as non-blocking.
func (b *blockChecker) blockingOf(fn *function) *blockFact {
	if fact, ok := b.summaries[fn]; ok {
		return fact
	}
	b.summaries[fn] = nil // cycle cut: optimistic while in progress
	fact := ownBlocking(fn)
	for _, c := range fn.calls {
		if fact != nil {
			break
		}
		for _, callee := range b.e.callees(c) {
			if callee.pkg.Types.Name() == "sim" {
				continue // park points and kernel internals are trusted
			}
			if sub := b.blockingOf(callee); sub != nil {
				fact = &blockFact{
					op:    sub.op,
					pos:   sub.pos,
					chain: append([]string{callee.name}, sub.chain...),
				}
				break
			}
		}
	}
	b.summaries[fn] = fact
	return fact
}

// ownBlocking scans fn's own body (excluding nested literals, which are
// separate functions) for blocking primitives.
func ownBlocking(fn *function) *blockFact {
	info := fn.pkg.Info
	var fact *blockFact
	found := func(op string, pos token.Pos) {
		if fact == nil {
			fact = &blockFact{op: op, pos: pos}
		}
	}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal is its own function; it blocks where it is
			// invoked, which the call-graph recursion covers.
			return false
		case *ast.SendStmt:
			found("bare channel send", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found("bare channel receive", n.Pos())
			}
		case *ast.SelectStmt:
			found("select over host channels", n.Pos())
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found("range over a host channel", n.Pos())
				}
			}
		case *ast.CallExpr:
			if op := blockingCallee(info, n); op != "" {
				found(op, n.Pos())
			}
		}
		return true
	})
	return fact
}

// blockingCallee names the blocking primitive a call resolves to, or "".
func blockingCallee(info *types.Info, call *ast.CallExpr) string {
	obj := funcObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		recv := recvName(obj)
		switch recv + "." + obj.Name() {
		case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock", "WaitGroup.Wait", "Cond.Wait", "Once.Do":
			return "sync." + recv + "." + obj.Name()
		}
	case "os", "net", "os/exec", "syscall":
		return obj.Pkg().Path() + "." + obj.Name() + " (OS I/O)"
	}
	return ""
}
