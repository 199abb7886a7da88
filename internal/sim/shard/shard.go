// Package shard runs several private discrete-event engines in parallel
// under Chandy–Misra-style conservative synchronization. Virtual time is cut
// into fixed-width windows no wider than the minimum cross-shard lookahead;
// within a window every node advances its own engine independently (no locks,
// no shared state), and cross-node events travel as value messages through
// per-node-pair mailboxes that the coordinator drains at the window barrier
// in (time, srcNode, seq) order. Because a message emitted inside window k
// can only be due strictly after window k ends (the lookahead bound), the
// barrier order — and therefore every engine's event order — is independent
// of how many OS workers execute the windows, which is what makes fixed-seed
// sharded runs bit-identical at any worker count.
//
// A window of a large scenario holds only microseconds of work, so the
// parallel barrier is built for that: the coordinator goroutine advances
// nodes itself beside workers-1 helpers, the barrier is a handful of
// atomics that waiters spin on (yielding their P after a bounded number of
// polls), workers are capped at GOMAXPROCS, and nodes are claimed from the
// last index down, so callers put their heaviest node last.
//
// This package deliberately lives OUTSIDE lint.KernelPackages: the
// single-threaded kernel in internal/sim stays free of runtime
// synchronization (statically enforced by simlint's kernelsync check), and
// every goroutine, channel and atomic in the sharded discipline is confined
// to this one blessed coordinator with per-site //simlint:ordered
// attestations.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Msg is the cross-node event envelope: a fixed-size value so mailboxes are
// flat slices the coordinator can retain and reuse without per-message
// allocation. At is the virtual delivery time; Src/Seq are stamped by the
// Outbox and, with At, form the total delivery order (At, Src, Seq). The
// remaining fields are an application-defined payload (opcode, correlation
// tokens, scalars, and a small vector — sized for plantnet's per-request
// task breakdown).
type Msg struct {
	At  float64
	Src int32
	Dst int32
	Seq int64

	Kind   int32
	Ref    int32
	Token  int64
	Token2 int64
	F0, F1 float64
	Vec    [9]float64
}

// less is the mailbox delivery order: (At, Src, Seq).
func (m *Msg) less(o *Msg) bool {
	if m.At != o.At {
		return m.At < o.At
	}
	if m.Src != o.Src {
		return m.Src < o.Src
	}
	return m.Seq < o.Seq
}

// Node is one shard: it owns a private engine and advances it in windows.
// Advance must run the node's virtual clock up to and including until, after
// first applying every message in inbox (already sorted in delivery order;
// each At lies in the current window). Messages to other nodes are emitted
// via out. Advance is called from coordinator workers: it must touch only
// node-private state — determinism and the race detector both depend on it.
type Node interface {
	Advance(until float64, inbox []Msg, out *Outbox)
}

// Outbox collects one node's cross-shard emissions for the current window,
// stamping each message with the source node and a per-destination sequence
// number that is monotonic over the whole run — the (At, Src, Seq) delivery
// order needs no other tiebreak. Each node writes only its own Outbox, so
// emission is synchronization-free.
type Outbox struct {
	src  int32
	msgs []Msg
	seq  []int64 // per-destination emission counters
}

// Send emits m to node dst. m.At must already be set to the virtual delivery
// time; Src/Dst/Seq are stamped here.
//
//simlint:noalloc steady-state emission appends into buffers retained across windows
func (o *Outbox) Send(dst int32, m Msg) {
	m.Src = o.src
	m.Dst = dst
	m.Seq = o.seq[dst]
	o.seq[dst]++
	o.msgs = append(o.msgs, m)
}

// Coordinator owns the window loop: it cuts [0, until] into windows of the
// configured width, hands each node its due mailbox prefix, runs every
// node's Advance (inline, or shared with helper goroutines), then routes
// the emitted messages into per-destination pending buffers kept in
// delivery order. All mutable state is either node-private (engines,
// outboxes) or touched only between barriers on the coordinator goroutine.
type Coordinator struct {
	nodes   []Node
	window  float64
	outs    []Outbox
	pending [][]Msg // per destination, sorted by (At, Src, Seq)
	inboxes [][]Msg // per destination, the due prefix copied out per window
	// The parallel barrier (see runParallel). Each variable that workers
	// spin on has a cache line of its own, apart from the fields above that
	// every claim reads, so one worker's polling does not stall another's
	// writes.
	_      cacheLine
	epoch  atomic.Int64 // current window number; -1 stops the helpers
	_      cacheLine
	end    atomic.Uint64 // current window end, as float64 bits
	cursor atomic.Int64  // nodes claimed in the current window
	_      cacheLine
	left   atomic.Int64 // nodes of the current window not yet advanced
	_      cacheLine
}

// cacheLine pads the barrier variables apart.
type cacheLine [64]byte

// NewCoordinator builds a coordinator over nodes with the given window
// width, which must be positive and no larger than the minimum cross-node
// lookahead (the caller derives it from propagation delay; the Run loop
// panics on any message that violates it).
func NewCoordinator(nodes []Node, window float64) *Coordinator {
	if window <= 0 {
		panic(fmt.Sprintf("shard: window width must be positive, got %v", window))
	}
	n := len(nodes)
	c := &Coordinator{
		nodes:   nodes,
		window:  window,
		outs:    make([]Outbox, n),
		pending: make([][]Msg, n),
		inboxes: make([][]Msg, n),
	}
	for i := range c.outs {
		c.outs[i].src = int32(i)
		c.outs[i].seq = make([]int64, n)
	}
	return c
}

// Reset prepares a pooled coordinator for a fresh run over the same nodes:
// emission counters return to zero and the mailbox buffers are emptied, but
// their backing arrays are retained so a reused coordinator's steady state
// allocates nothing.
func (c *Coordinator) Reset(window float64) {
	if window <= 0 {
		panic(fmt.Sprintf("shard: window width must be positive, got %v", window))
	}
	c.window = window
	for i := range c.outs {
		c.outs[i].msgs = c.outs[i].msgs[:0]
		for j := range c.outs[i].seq {
			c.outs[i].seq[j] = 0
		}
		c.pending[i] = c.pending[i][:0]
		c.inboxes[i] = c.inboxes[i][:0]
	}
}

// Run advances every node to virtual time until (inclusive), window by
// window. workers bounds the OS-level parallelism and is capped at the node
// count and at runtime.GOMAXPROCS(0): parallel workers spin at the barrier,
// and more spinners than Ps would only take turns on them.
// A cap of 1 runs the window loop inline on the calling goroutine
// (bit-identical to any other worker count — the tests enforce it); higher
// values run the windows on the calling goroutine plus workers-1 helpers.
// Which worker advances which node can never affect output: nodes share
// nothing, and routing happens on the coordinator goroutine between
// barriers in fixed node order. The parallel path lives in runParallel so
// the inline path stays allocation-free (the helper closure and its
// WaitGroup would otherwise be heap-allocated here).
//
//simlint:noalloc steady-state window loop: delivery, advance and routing reuse buffers retained across windows
func (c *Coordinator) Run(until float64, workers int) {
	workers = min(workers, len(c.nodes), runtime.GOMAXPROCS(0))
	if workers > 1 {
		c.runParallel(until, workers) //simlint:allow noallocclosure runParallel is the explicitly-parallel cold path; its helper spawn is per-Run, not per-window
		return
	}
	for k := int64(1); ; k++ {
		end := c.window * float64(k)
		if end > until {
			end = until
		}
		c.deliver(end)
		for i := range c.nodes {
			c.nodes[i].Advance(end, c.inboxes[i], &c.outs[i]) //simlint:allow noallocclosure Advance is an interface call; each node's own steady-state paths carry their own noalloc contracts (plantnet shSlot pool, sim freelists)
		}
		c.route(end)
		if end >= until {
			return
		}
	}
}

// runParallel is Run's parallel variant: the same window loop with the
// Advance phase shared between the coordinator goroutine and workers-1
// helpers, and a barrier of atomics only — no channel handoff, no parking.
// Per window the coordinator delivers, publishes the window end, refills
// the count of nodes left, resets the claim cursor and bumps the epoch
// that wakes the helpers. Every worker, the coordinator included, then
// runs advanceClaimed, and the coordinator routes once the count of nodes
// left reaches zero. Each store the coordinator makes before the cursor
// reset happens-before the claims that observe the reset, and every Advance
// happens-before the decrement the coordinator waits on, so node-private
// state is handed off with a happens-before edge in each direction and the
// race detector observes the discipline, not just the schedule.
//
// Nodes are claimed from the last index down, so a caller puts its
// heaviest node last: it starts first, typically on the coordinator, while
// the helpers take the rest (plantnet's core shard is last for this
// reason).
//
//simlint:ordered worker assignment is load-balancing only: nodes touch disjoint state and the coordinator routes outboxes in fixed node order after the barrier, so output is independent of worker interleaving
func (c *Coordinator) runParallel(until float64, workers int) {
	var wg sync.WaitGroup
	// Stop and join the helpers on every path, a panicking Advance or route
	// included, so that none is left spinning.
	defer func() {
		c.epoch.Store(-1)
		wg.Wait()
		c.epoch.Store(0)
	}()
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for seen := int64(0); ; {
				for polls := 0; c.epoch.Load() == seen; {
					polls = backoff(polls)
				}
				if seen = c.epoch.Load(); seen < 0 {
					return
				}
				c.advanceClaimed()
			}
		}()
	}
	for k := int64(1); ; k++ {
		end := c.window * float64(k)
		if end > until {
			end = until
		}
		c.deliver(end)
		c.end.Store(math.Float64bits(end))
		c.left.Store(int64(len(c.nodes)))
		c.cursor.Store(0)
		c.epoch.Store(k)
		c.advanceClaimed()
		for polls := 0; c.left.Load() != 0; {
			polls = backoff(polls)
		}
		c.route(end)
		if end >= until {
			return
		}
	}
}

// advanceClaimed advances nodes claimed off the cursor, last index first,
// until the cursor is exhausted, then counts them off the window's nodes
// left. The end is loaded after each claim, not once up front: a helper
// that found window k exhausted may claim its first node of window k+1
// before it sees the new epoch. The end it loads was stored before the
// reset its claim observed, and the next end cannot be stored before this
// claim is counted off.
func (c *Coordinator) advanceClaimed() {
	n := int64(len(c.nodes))
	done := int64(0)
	for i := n - c.cursor.Add(1); i >= 0; i = n - c.cursor.Add(1) {
		c.nodes[i].Advance(math.Float64frombits(c.end.Load()), c.inboxes[i], &c.outs[i])
		done++
	}
	if done > 0 {
		c.left.Add(-done)
	}
}

// spinPolls is how many bare reloads a barrier waiter makes before it
// starts yielding its P.
const spinPolls = 128

// backoff is one poll of a barrier wait: a bare reload for the first
// spinPolls polls, a scheduler yield on every poll after that, so a waiter
// never needs a P of its own for the goroutine it waits on to progress.
func backoff(polls int) int {
	if polls < spinPolls {
		return polls + 1
	}
	runtime.Gosched()
	return polls
}

// deliver copies each destination's due mailbox prefix (At <= end) into its
// inbox buffer and compacts the remainder. pending is sorted, so the prefix
// is contiguous.
//
//simlint:noalloc steady-state delivery reuses inbox buffers retained across windows
func (c *Coordinator) deliver(end float64) {
	for d := range c.pending {
		p := c.pending[d]
		due := 0
		for due < len(p) && p[due].At <= end {
			due++
		}
		c.inboxes[d] = append(c.inboxes[d][:0], p[:due]...)
		c.pending[d] = p[:copy(p, p[due:])]
	}
}

// route moves every node's window emissions into the destination pending
// buffers in fixed node order, enforcing the lookahead bound (a message due
// within the window just executed would have to travel backwards in virtual
// time at its destination — a programming error, not a recoverable
// condition).
//
//simlint:noalloc steady-state routing reuses pending buffers retained across windows
func (c *Coordinator) route(end float64) {
	for i := range c.outs {
		for _, m := range c.outs[i].msgs {
			if m.At <= end {
				lookaheadPanic(i, m.At, end, c.window) //simlint:allow noallocclosure fatal-path formatting; the process dies here
			}
			insert(&c.pending[m.Dst], m)
		}
		c.outs[i].msgs = c.outs[i].msgs[:0]
	}
}

// lookaheadPanic reports a lookahead violation. Kept out of line so route's
// steady state stays provably allocation-free (the Sprintf arguments would
// otherwise escape at every call site).
//
//go:noinline
func lookaheadPanic(node int, at, end, window float64) {
	panic(fmt.Sprintf(
		"shard: lookahead violation: node %d emitted a message due at %v inside its own window ending %v (window width %v)",
		node, at, end, window))
}

// insert places m into the sorted pending buffer. Emissions arrive nearly
// sorted (each source emits in nondecreasing At), so the linear
// shift-from-the-back insertion is effectively O(1) per message; hand-rolled
// to keep the steady-state window loop allocation-free (sort.Slice's closure
// would escape).
//
//simlint:noalloc steady-state routing appends into buffers retained across windows
func insert(ps *[]Msg, m Msg) {
	p := append(*ps, m)
	for i := len(p) - 1; i > 0 && p[i].less(&p[i-1]); i-- {
		p[i], p[i-1] = p[i-1], p[i]
	}
	*ps = p
}
