// Package threadsim simulates the execution of a thread-parallel region
// (OpenMP parallel-for or a pthread fan-out) on one MPI rank.
//
// Threads advance independent virtual clocks through the region body.
// Compute blocks either workshare (cost divided across threads) or
// replicate. Explicit mutexes and the implicit memory-allocator lock
// serialize across threads: acquisitions are granted in global time order,
// one holder at a time, which is exactly the mechanism behind case study C
// (Vite): per-insert allocator traffic inside threads serializes on the
// heap lock, so adding threads makes the region slower. The region ends
// with an implicit join; its elapsed time is the maximum thread clock.
//
// The simulation is fully deterministic: ties in the event queue are broken
// by thread ID.
package threadsim

import (
	"container/heap"
	"fmt"

	"perflow/internal/ir"
	"perflow/internal/trace"
)

// Result is the outcome of simulating one region execution.
type Result struct {
	Elapsed float64       // join time relative to region start
	Events  []trace.Event // per-thread events with absolute times
	// LockWait is the summed time threads spent waiting for locks.
	LockWait float64
	// Syncs records lock-contention dependences between threads, aggregated
	// per (holder thread/node, waiter thread/node, lock) tuple. Rank fields
	// are filled by the caller's rank.
	Syncs []trace.SyncEdge
}

// allocLockName is the process-wide implicit allocator lock every Alloc
// node contends on.
const allocLockName = "heap_allocator"

// handoffAlpha scales the extra critical-section cost of a contended
// acquisition per waiting thread: every waiter spins on (and invalidates)
// the lock and allocator-metadata cache lines, so each handoff costs
// hold * (1 + handoffAlpha * waiters). Total serialized time therefore
// GROWS with the thread count even at constant total allocator traffic —
// the mechanism behind Vite's more-threads-is-slower inversion (Fig. 13).
const handoffAlpha = 0.25

// Simulate executes region for one rank. prog resolves callees; rank/nranks
// evaluate expressions; threads is the region's thread count (region.Threads
// overrides when nonzero); cct interns contexts under regionCtx; start is
// the rank-local time at region entry (event timestamps are absolute). A
// nil cct simulates timing only: the result carries Elapsed and LockWait
// but no events or sync edges.
func Simulate(prog *ir.Program, region *ir.Parallel, rank, nranks, threads int,
	cct *trace.CCT, regionCtx trace.CtxID, start float64) (*Result, error) {

	if region.Threads > 0 {
		threads = region.Threads
	}
	if threads <= 0 {
		threads = 1
	}

	// Flatten the region body into a per-thread op list. All threads run
	// the same list; worksharing is applied to compute durations.
	fl := &flattener{
		prog: prog, rank: rank, nranks: nranks,
		threads: threads, workshare: region.Workshare, cct: cct,
	}
	if err := fl.nodes(region.Body, regionCtx, 1); err != nil {
		return nil, err
	}

	res := &Result{}
	st := &simState{
		locks:   map[string]float64{},
		holders: map[string]holder{},
		syncAgg: map[syncKey]*syncAcc{},
		result:  res,
		record:  cct != nil,
	}

	// Event-driven interleaving across threads.
	q := make(threadHeap, threads)
	states := make([]threadState, threads)
	for t := 0; t < threads; t++ {
		states[t] = threadState{id: t}
		q[t] = &states[t]
	}
	heap.Init(&q)

	for q.Len() > 0 {
		th := q[0]
		if th.pc >= len(fl.ops) {
			heap.Pop(&q)
			if th.clock > res.Elapsed {
				res.Elapsed = th.clock
			}
			continue
		}
		op := &fl.ops[th.pc]
		switch op.kind {
		case topCompute:
			if st.record {
				res.Events = append(res.Events, trace.Event{
					Rank: int32(rank), Thread: int32(th.id), Kind: trace.KindCompute,
					Node: op.node, Ctx: op.ctx,
					Start: start + th.clock, End: start + th.clock + op.dur,
				})
			}
			th.clock += op.dur
			th.pc++
		case topLock:
			if st.lockStep(th, op, rank, start, res, states, fl.ops) {
				th.pc++
			}
		}
		heap.Fix(&q, 0)
	}
	st.flushSyncs(rank, start)
	return res, nil
}

type holder struct {
	thread int
	node   ir.NodeID
}

type syncKey struct {
	src  holder
	dst  holder
	lock string
}

type syncAcc struct {
	wait  float64
	first float64
}

type simState struct {
	locks   map[string]float64 // lock name -> free time
	holders map[string]holder  // lock name -> last holder
	syncAgg map[syncKey]*syncAcc
	result  *Result
	record  bool // false: timing only, no events or sync edges
}

// flushSyncs converts the aggregated contention records into SyncEdges in a
// deterministic order.
func (st *simState) flushSyncs(rank int, start float64) {
	keys := make([]syncKey, 0, len(st.syncAgg))
	for k := range st.syncAgg {
		keys = append(keys, k)
	}
	sortSyncKeys(keys)
	for _, k := range keys {
		acc := st.syncAgg[k]
		st.result.Syncs = append(st.result.Syncs, trace.SyncEdge{
			Kind:      trace.SyncLock,
			SrcRank:   int32(rank),
			DstRank:   int32(rank),
			SrcThread: int32(k.src.thread),
			DstThread: int32(k.dst.thread),
			SrcNode:   k.src.node,
			DstNode:   k.dst.node,
			Time:      start + acc.first,
			Wait:      acc.wait,
			Lock:      k.lock,
		})
	}
}

func sortSyncKeys(keys []syncKey) {
	less := func(a, b syncKey) bool {
		if a.src.thread != b.src.thread {
			return a.src.thread < b.src.thread
		}
		if a.dst.thread != b.dst.thread {
			return a.dst.thread < b.dst.thread
		}
		if a.src.node != b.src.node {
			return a.src.node < b.src.node
		}
		if a.dst.node != b.dst.node {
			return a.dst.node < b.dst.node
		}
		return a.lock < b.lock
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// lockStep performs ONE acquisition of op.lock for th (a batch op spans
// op.count acquisitions). Performing one acquisition per scheduler turn
// interleaves threads in global time order, matching the FIFO fairness of a
// real futex queue. It returns true when the batch is complete, at which
// point one aggregated event covering the batch is emitted.
func (st *simState) lockStep(th *threadState, op *top, rank int, start float64, res *Result, states []threadState, ops []top) bool {
	if th.batchRem == 0 {
		th.batchRem = op.count
		th.batchStart = th.clock
		th.batchWait = 0
	}
	grant := th.clock
	hold := op.hold
	if free := st.locks[op.lock]; free > grant {
		wait := free - grant
		th.batchWait += wait
		grant = free
		// Contended handoff: cost grows with the number of threads blocked
		// on (or headed straight for) this lock right now.
		waiters := 0
		for i := range states {
			o := &states[i]
			if o.id == th.id || o.pc >= len(ops) {
				continue
			}
			next := &ops[o.pc]
			if next.kind == topLock && next.lock == op.lock && o.clock <= free {
				waiters++
			}
		}
		hold += op.hold * handoffAlpha * float64(waiters)
		// Record who we waited behind: the previous holder of this lock.
		if h, ok := st.holders[op.lock]; ok && st.record && (h.thread != th.id || h.node != op.node) {
			k := syncKey{src: h, dst: holder{thread: th.id, node: op.node}, lock: op.lock}
			acc := st.syncAgg[k]
			if acc == nil {
				acc = &syncAcc{first: th.clock}
				st.syncAgg[k] = acc
			}
			acc.wait += wait
		}
	}
	release := grant + hold
	st.locks[op.lock] = release
	st.holders[op.lock] = holder{thread: th.id, node: op.node}
	th.clock = release
	th.batchRem--
	if th.batchRem > 0 {
		return false
	}
	res.LockWait += th.batchWait
	if !st.record {
		return true
	}
	kind := trace.KindLock
	if op.isAlloc {
		kind = trace.KindAlloc
	}
	res.Events = append(res.Events, trace.Event{
		Rank: int32(rank), Thread: int32(th.id), Kind: kind,
		Node: op.node, Ctx: op.ctx,
		Start: start + th.batchStart, End: start + th.clock, Wait: th.batchWait,
		Count: int32(op.count),
	})
	return true
}

type threadState struct {
	id    int
	clock float64
	pc    int

	// in-progress lock batch
	batchRem   int
	batchStart float64
	batchWait  float64
}

type threadHeap []*threadState

func (h threadHeap) Len() int { return len(h) }
func (h threadHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].id < h[j].id
}
func (h threadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x any)   { *h = append(*h, x.(*threadState)) }
func (h *threadHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type topKind int

const (
	topCompute topKind = iota
	topLock
)

// top is a flattened thread-level operation.
type top struct {
	kind    topKind
	node    ir.NodeID
	ctx     trace.CtxID
	dur     float64 // compute
	lock    string  // lock/alloc
	hold    float64
	count   int
	isAlloc bool
}

type flattener struct {
	prog      *ir.Program
	rank      int
	nranks    int
	threads   int
	workshare bool
	cct       *trace.CCT // nil: contexts are not interned
	ops       []top
}

// intern interns node under ctx, or returns NoCtx when timing only.
func (f *flattener) intern(ctx trace.CtxID, node ir.NodeID) trace.CtxID {
	if f.cct == nil {
		return trace.NoCtx
	}
	return f.cct.Intern(ctx, node)
}

// lockCount evaluates an acquisition count under worksharing: like compute
// cost, loop iterations (and the lock traffic inside them) are divided
// across the team.
func (f *flattener) lockCount(e ir.Expr, mult float64) int {
	c := e.Value(f.rank, f.nranks) * mult
	if f.workshare {
		c /= float64(f.threads)
	}
	return int(c + 0.5)
}

// nodes flattens a body; mult is the product of enclosing trip counts.
func (f *flattener) nodes(ns []ir.Node, ctx trace.CtxID, mult float64) error {
	for _, n := range ns {
		if err := f.node(n, ctx, mult); err != nil {
			return err
		}
	}
	return nil
}

func (f *flattener) node(n ir.Node, ctx trace.CtxID, mult float64) error {
	switch x := n.(type) {
	case *ir.Compute:
		dur := x.Cost.Value(f.rank, f.nranks) * mult
		if f.workshare {
			dur /= float64(f.threads)
		}
		if dur < 0 {
			dur = 0
		}
		f.ops = append(f.ops, top{
			kind: topCompute, node: x.ID(),
			ctx: f.intern(ctx, x.ID()), dur: dur,
		})
	case *ir.Loop:
		trips := x.Trips.Value(f.rank, f.nranks)
		if trips <= 0 {
			return nil
		}
		return f.nodes(x.Body, f.intern(ctx, x.ID()), mult*trips)
	case *ir.Branch:
		if x.Taken.Value(f.rank, f.nranks) == 0 {
			return nil
		}
		return f.nodes(x.Body, f.intern(ctx, x.ID()), mult)
	case *ir.Call:
		callCtx := f.intern(ctx, x.ID())
		if x.External || x.Indirect {
			dur := x.Cost.Value(f.rank, f.nranks) * mult
			if dur > 0 {
				f.ops = append(f.ops, top{kind: topCompute, node: x.ID(), ctx: callCtx, dur: dur})
			}
			return nil
		}
		callee := f.prog.Function(x.Callee)
		if callee == nil {
			return fmt.Errorf("threadsim: call to undefined function %q", x.Callee)
		}
		return f.nodes(callee.Body, f.intern(callCtx, callee.ID()), mult)
	case *ir.Mutex:
		cnt := f.lockCount(x.Count, mult)
		if cnt <= 0 {
			return nil
		}
		f.ops = append(f.ops, top{
			kind: topLock, node: x.ID(), ctx: f.intern(ctx, x.ID()),
			lock: x.LockName, hold: x.Hold.Value(f.rank, f.nranks), count: cnt,
		})
	case *ir.Alloc:
		cnt := f.lockCount(x.Count, mult)
		if cnt <= 0 {
			return nil
		}
		f.ops = append(f.ops, top{
			kind: topLock, node: x.ID(), ctx: f.intern(ctx, x.ID()),
			lock: allocLockName, hold: x.Hold.Value(f.rank, f.nranks),
			count: cnt, isAlloc: true,
		})
	case *ir.Comm:
		return fmt.Errorf("threadsim: MPI operation %s inside parallel region at %s is not supported", x.Op, x.Debug())
	case *ir.Parallel:
		return fmt.Errorf("threadsim: nested parallel region %q at %s", x.Name, x.Debug())
	default:
		return fmt.Errorf("threadsim: unsupported node kind %q", n.Kind())
	}
	return nil
}
