// Package sdf is the symbolic dataflow framework over the MPI IR: an
// interprocedural, loop-aware static analysis that derives a program's
// communication structure and cost WITHOUT running a single rank.
//
// The analysis is a summary-based fixpoint over a simple lattice: the
// dataflow fact for a function is the ordered list of guarded symbolic
// communication events (and cost-bearing items) one invocation performs.
// Bottom is the empty list; the transfer functions extend the list in
// program order; branch conditions join as symbolic guards rather than by
// merging paths (the IR's branch conditions are closed-form in rank and
// size, so both arms stay distinguishable); loops keep their trip counts
// symbolic. Call sites compose summaries by prefixing the caller's guard
// and loop context onto every callee event — the interprocedural step.
// A call to a function already on the call path is a back edge and widens
// to bottom (recursion is rejected by ir.Validate as PF004; the cut only
// matters for lenient lint runs). What a cut drops depends on the path
// that reached it, so only summaries computed without any cut are reused
// across call sites; the rest are recomputed per call path.
//
// Every derived artifact — the static communication matrix, the per-rank
// cost vector, the critical-path estimate, the lint engine's per-rank
// communication streams — is a closed-form function of (rank, size),
// evaluable at ANY communicator size. Two evaluation semantics coexist,
// because the repo has two consumers with different counting rules:
//
//   - Event.Count mirrors the SIMULATOR's flattener: communication inside
//     a non-comm-per-iter loop executes once (as if hoisted), and a
//     comm-per-iter loop replays its body trunc(trips) times. Matrix uses
//     this, which is why the static matrix matches a dynamically collected
//     one exactly on fault-free runs.
//   - Event.Weight is the LINT engine's multiplicity: the full (float)
//     product of enclosing trip counts. The matching, deadlock and
//     divergence analyzers read it from the per-rank streams.
package sdf

import (
	"fmt"
	"math"

	"perflow/internal/ir"
)

// Event is one point-to-point or collective operation with its full static
// context: the symbolic peer pattern, payload size, guards (enclosing
// branch conditions, all of which must be nonzero for the event to
// execute), and enclosing loops (trip counts symbolic). MPI_Sendrecv is
// split into its Isend half (toward the peer) and Irecv half (from the
// symmetric partner), exactly as the simulator expands it.
type Event struct {
	Node *ir.Comm
	Op   ir.CommKind // effective operation; never CommSendrecv
	Fn   string      // enclosing function
	Peer ir.Peer     // symbolic peer (symmetric-inverted for the Irecv half)

	Guards []*ir.Branch // conjunction of enclosing branch conditions
	Loops  []*ir.Loop   // enclosing loops, outermost first
}

// CostItem is one cost-bearing node (compute, external call, lock or
// allocator hold, GPU kernel) with its static context. Its contribution to
// a rank's compute units is eval × loop multiplicity, guarded like events.
type CostItem struct {
	Node   ir.Node
	Fn     string
	Guards []*ir.Branch
	Loops  []*ir.Loop

	// eval returns the item's unscaled per-execution cost for (rank, size).
	eval func(rank, nranks int) float64
}

// Item is one slot of the model's interleaved program-order stream: exactly
// one of Ev or Cost is set. Analyzers that care about adjacency (redundant
// barriers) read Items; everyone else reads Events or Costs.
type Item struct {
	Ev   *Event
	Cost *CostItem
}

// Model is the whole-program symbolic dataflow result: the entry rank's
// event and cost streams in execution order, with all rank/size dependence
// kept symbolic.
type Model struct {
	Prog   *ir.Program
	Events []*Event
	Costs  []*CostItem
	Items  []Item

	// summaries memoizes the items one invocation of a function produces,
	// with guard/loop context relative to the function entry. Only
	// summaries computed without a recursion cut are kept (see summarize).
	summaries map[string][]Item
	// work counts what New has built so far, against MaxWork.
	work int
}

// MaxWork bounds the work of New, counted as the items it creates (every
// event and cost item, and every copy inlined at a call site) plus the
// function bodies it summarizes. Inlined streams can outgrow any program
// text: a recursion cut per call path makes n mutually recursive functions
// cost about n! summaries, and a chain of functions that each call the next
// twice doubles the stream per link. The largest corpus program, mg, takes
// 4,307 (its stream has 1,412 items), so every corpus program keeps over
// 100× headroom, and a runaway program is refused in under 100 ms on a
// 2-vCPU Xeon.
//
// The cap bounds lint's cost, not what mpisim can run: its
// Config.MaxOpsPerRank counts one rank's unrolled ops, while this stream
// holds every branch arm and counts a loop body once, so neither count
// bounds the other. Lint's analyzers evaluate the stream at every (rank,
// size) they model, which on the same 2-vCPU Xeon costs about 60 µs and
// 60 KB per item: a doubling chain of 65,535 items (work about 200,000)
// lints in 3.9 s, and one of 131,071 items, refused here in under 60 ms,
// took 9.2 s and 7.6 GB of allocation to lint without the cap. A stream of
// MaxOpsPerRank items would take minutes.
const MaxWork = 450_000

// TooLargeError reports a program whose symbolic summary would exceed
// MaxWork.
type TooLargeError struct {
	Limit int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("sdf: program too large to summarize: its inlined call graph exceeds %d items", e.Limit)
}

// New derives the symbolic dataflow model of a program. It fails when the
// program has no entry function, and with a *TooLargeError when summarizing
// it would exceed MaxWork; a cyclic static call graph is cut at the back
// edge on each call path, as a per-rank walk of the IR would.
func New(prog *ir.Program) (*Model, error) {
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return nil, fmt.Errorf("sdf: program has no entry function %q", prog.Entry)
	}
	m := &Model{Prog: prog, summaries: map[string][]Item{}}
	items, _ := m.summarize(entry, map[string]bool{})
	m.Items = m.expand(items, nil, nil)
	if m.work > MaxWork {
		return nil, &TooLargeError{Limit: MaxWork}
	}
	for i := range m.Items {
		if ev := m.Items[i].Ev; ev != nil {
			m.Events = append(m.Events, ev)
		} else {
			m.Costs = append(m.Costs, m.Items[i].Cost)
		}
	}
	return m, nil
}

// summarize returns the items one invocation of f produces on the current
// call path, and whether a back edge was cut while computing them. The
// fixpoint iteration degenerates to a post-order walk because back edges
// widen to bottom (onStack cut). A summary computed under a cut depends on
// the call path that reached f — main→a→b→a cuts a's events out of that b,
// while a direct main→b keeps them — so it is not memoized. A cut-free
// summary is the same on every path: any back edge a later path could hit
// would have closed a cycle through f, which this walk cuts too.
func (m *Model) summarize(f *ir.Function, onStack map[string]bool) ([]Item, bool) {
	if s, ok := m.summaries[f.Name]; ok {
		return s, false
	}
	m.work++
	onStack[f.Name] = true
	items, cut := m.walk(f.Body, f.Name, nil, nil, onStack)
	onStack[f.Name] = false
	if !cut {
		m.summaries[f.Name] = items
	}
	return items, cut
}

// walk builds the item stream of a node list under the given guard/loop
// context, following direct calls through their summaries. It reports
// whether any call in the list (transitively) was cut as a back edge.
func (m *Model) walk(ns []ir.Node, fn string, guards []*ir.Branch, loops []*ir.Loop, onStack map[string]bool) ([]Item, bool) {
	var out []Item
	cut := false
	sub := func(items []Item, c bool) {
		out = append(out, items...)
		cut = cut || c
	}
	costItem := func(n ir.Node, eval func(rank, nranks int) float64) {
		m.work++
		out = append(out, Item{Cost: &CostItem{
			Node: n, Fn: fn, Guards: guards, Loops: loops, eval: eval,
		}})
	}
	for _, n := range ns {
		if m.work > MaxWork {
			return nil, cut // New rejects the program
		}
		switch x := n.(type) {
		case *ir.Comm:
			emit := func(op ir.CommKind, peer ir.Peer) {
				m.work++
				out = append(out, Item{Ev: &Event{
					Node: x, Op: op, Fn: fn, Peer: peer,
					Guards: guards, Loops: loops,
				}})
			}
			if x.Op == ir.CommSendrecv {
				emit(ir.CommIsend, x.Peer)
				emit(ir.CommIrecv, x.Peer.Inverse())
			} else {
				emit(x.Op, x.Peer)
			}

		case *ir.Branch:
			g := append(append([]*ir.Branch{}, guards...), x)
			sub(m.walk(x.Body, fn, g, loops, onStack))

		case *ir.Loop:
			l := append(append([]*ir.Loop{}, loops...), x)
			sub(m.walk(x.Body, fn, guards, l, onStack))

		case *ir.Call:
			if x.External || x.Indirect {
				cost := x.Cost
				costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })
				continue
			}
			if onStack[x.Callee] {
				cut = true // back edge: widen to bottom
				continue
			}
			callee := m.Prog.Function(x.Callee)
			if callee == nil {
				continue
			}
			items, c := m.summarize(callee, onStack)
			sub(m.expand(items, guards, loops), c)

		case *ir.Compute:
			cost := x.Cost
			costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })

		case *ir.Kernel:
			cost := x.Cost
			costItem(x, func(rank, nranks int) float64 { return cost.Value(rank, nranks) })

		case *ir.Mutex:
			cnt, hold := x.Count, x.Hold
			costItem(x, func(rank, nranks int) float64 {
				return cnt.Value(rank, nranks) * hold.Value(rank, nranks)
			})

		case *ir.Alloc:
			cnt, hold := x.Count, x.Hold
			costItem(x, func(rank, nranks int) float64 {
				return cnt.Value(rank, nranks) * hold.Value(rank, nranks)
			})

		default:
			sub(m.walk(n.Children(), fn, guards, loops, onStack))
		}
	}
	return out, cut
}

// expand prefixes a caller context onto a summary's items — the
// interprocedural composition step. With an empty prefix it still copies,
// so one summary inlined at two call sites yields independent events. It
// copies nothing once the copies would exceed MaxWork.
func (m *Model) expand(items []Item, guards []*ir.Branch, loops []*ir.Loop) []Item {
	if m.work += len(items); m.work > MaxWork {
		return nil
	}
	// The copies come from two slabs, one allocation each.
	nev := 0
	for _, it := range items {
		if it.Ev != nil {
			nev++
		}
	}
	evs := make([]Event, nev)
	costs := make([]CostItem, len(items)-nev)
	out := make([]Item, len(items))
	for i, it := range items {
		if it.Ev != nil {
			ev := &evs[0]
			evs = evs[1:]
			*ev = *it.Ev
			ev.Guards = joinCtx(guards, ev.Guards)
			ev.Loops = joinCtx(loops, ev.Loops)
			out[i].Ev = ev
		} else {
			c := &costs[0]
			costs = costs[1:]
			*c = *it.Cost
			c.Guards = joinCtx(guards, c.Guards)
			c.Loops = joinCtx(loops, c.Loops)
			out[i].Cost = c
		}
	}
	return out
}

func joinCtx[T any](prefix, rel []T) []T {
	if len(prefix) == 0 {
		return rel
	}
	return append(append([]T{}, prefix...), rel...)
}

// Live reports whether the event's guards are all satisfied and every
// enclosing loop trips at least fractionally for (rank, nranks).
func live(guards []*ir.Branch, loops []*ir.Loop, rank, nranks int) bool {
	for _, g := range guards {
		if g.Taken.Value(rank, nranks) == 0 {
			return false
		}
	}
	for _, l := range loops {
		if l.Trips.Value(rank, nranks) <= 0 {
			return false
		}
	}
	return true
}

// Count returns how many times the event executes for one rank at one
// communicator size under the SIMULATOR's semantics: comm-per-iter loops
// contribute trunc(trips) iterations, other loops execute the event once
// (as if hoisted). This is the counting rule the static communication matrix
// uses, and it matches the flattener exactly.
func (e *Event) Count(rank, nranks int) float64 {
	if !live(e.Guards, e.Loops, rank, nranks) {
		return 0
	}
	count := 1.0
	for _, l := range e.Loops {
		if l.CommPerIter {
			count *= math.Trunc(l.Trips.Value(rank, nranks))
		}
	}
	return count
}

// Weight returns the event's multiplicity under the LINT engine's
// semantics: the full floating-point product of enclosing trip counts,
// regardless of comm-per-iter.
func (e *Event) Weight(rank, nranks int) float64 {
	if !live(e.Guards, e.Loops, rank, nranks) {
		return 0
	}
	w := 1.0
	for _, l := range e.Loops {
		w *= l.Trips.Value(rank, nranks)
	}
	return w
}

// Bytes returns the event's payload size for (rank, nranks).
func (e *Event) Bytes(rank, nranks int) float64 {
	return e.Node.Bytes.Value(rank, nranks)
}

// Value returns the cost item's contribution to a rank's compute units:
// per-execution cost times the full loop multiplicity (comm-per-iter loops
// contribute trunc(trips) body executions, others the closed-form product —
// the flattener's compute semantics).
func (c *CostItem) Value(rank, nranks int) float64 {
	if !live(c.Guards, c.Loops, rank, nranks) {
		return 0
	}
	mult := 1.0
	for _, l := range c.Loops {
		trips := l.Trips.Value(rank, nranks)
		if l.CommPerIter {
			mult *= math.Trunc(trips)
		} else {
			mult *= trips
		}
	}
	return c.eval(rank, nranks) * mult
}
