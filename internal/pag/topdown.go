package pag

import (
	"runtime"
	"sync"

	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/trace"
)

// BuildTopDown constructs the top-down view of the PAG from the program IR
// ("static analysis", paper §3.2 / Figure 4): one vertex per IR node,
// intra-procedural edges for control flow (container to first child,
// consecutive siblings), and inter-procedural edges from each call site to
// its callee's function vertex. Indirect calls cannot be resolved
// statically; their vertices are marked unresolved, to be completed by the
// dynamic phase.
func BuildTopDown(p *ir.Program) *PAG {
	if !p.Finalized() {
		if err := p.Finalize(); err != nil {
			panic("pag: BuildTopDown on invalid program: " + err.Error())
		}
	}
	out := &PAG{
		G:      graph.New(p.NumNodes(), p.NumNodes()+8),
		Prog:   p,
		View:   TopDown,
		byNode: make([]graph.VertexID, p.NumNodes()),
	}
	for i := range out.byNode {
		out.byNode[i] = graph.NoVertex
	}

	// Create vertices for every node (pre-order, deterministic).
	p.Walk(func(n, _ ir.Node) {
		id := out.addIRVertex(n)
		out.byNode[nodeInfo(n).ID()] = id
	})

	// Intra-procedural edges inside every container.
	p.Walk(func(n, _ ir.Node) {
		kids := n.Children()
		if len(kids) == 0 {
			return
		}
		parentV := out.byNode[nodeInfo(n).ID()]
		prev := graph.NoVertex
		for _, k := range kids {
			kv := out.byNode[nodeInfo(k).ID()]
			if prev == graph.NoVertex {
				out.G.AddEdge(parentV, kv, EdgeIntraProc)
			} else {
				out.G.AddEdge(prev, kv, EdgeIntraProc)
			}
			prev = kv
		}
	})

	// Inter-procedural edges: call site -> callee function vertex.
	p.Walk(func(n, _ ir.Node) {
		c, ok := n.(*ir.Call)
		if !ok {
			return
		}
		cv := out.byNode[c.ID()]
		switch {
		case c.Indirect:
			out.G.Vertex(cv).SetAttr(AttrUnresolved, "true")
		case c.External:
			// External calls have no body in the program; leaf vertex.
		default:
			callee := p.Function(c.Callee)
			out.G.AddEdge(cv, out.byNode[callee.ID()], EdgeInterProc)
		}
	})
	return out
}

// PMUModel converts compute durations into synthetic performance-monitor
// counters. The defaults model a 2.4 GHz core: cycles = µs * 2400;
// instructions and cache misses scale with the IR node's Flops and MemBytes
// rates.
type PMUModel struct {
	CyclesPerUS    float64 // default 2400
	InstrPerFlop   float64 // default 1
	CacheLineBytes float64 // default 64
}

func (m PMUModel) withDefaults() PMUModel {
	if m.CyclesPerUS <= 0 {
		m.CyclesPerUS = 2400
	}
	if m.InstrPerFlop <= 0 {
		m.InstrPerFlop = 1
	}
	if m.CacheLineBytes <= 0 {
		m.CacheLineBytes = 64
	}
	return m
}

// EmbedRun performs performance-data embedding (paper §3.3): every event is
// resolved through its calling context to a PAG vertex; exclusive time
// lands on the leaf vertex and inclusive time is accumulated along the
// ancestor path; communication volume, wait time, call counts, and
// synthesized PMU counters become vertex metrics, with per-rank vectors
// kept for imbalance analysis.
func (p *PAG) EmbedRun(run *trace.Run, pmu PMUModel) {
	p.EmbedRunParallel(run, pmu, BuildOptions{Parallelism: 1})
}

// embedAcc accumulates one rank's metric contributions to one vertex. The
// fixed field set mirrors exactly the metrics EmbedRun writes; the `set`
// bitmask records which ones this rank touched, so the merge creates the
// same metric keys (including explicit zeros) as direct accumulation.
type embedAcc struct {
	set                         uint16
	excl, count, wait, bytes    float64
	cycles, instrs, cmiss, time float64
	waitVec, timeVec            float64 // this rank's slot of the _vec metrics
}

const (
	accExcl = 1 << iota
	accCount
	accWait
	accBytes
	accCycles
	accInstrs
	accCmiss
	accTime
	accWaitVec
	accTimeVec
)

// EmbedRunParallel is EmbedRun with an explicit parallelism bound. Each
// rank's events accumulate into a private shard — a flat per-vertex
// accumulator array, so the hot loop does slice indexing instead of map
// hashing — and shards merge strictly in rank order, in vertex order within
// a rank. The shard phase only reads the PAG (resolveCtx/VertexOf are pure
// lookups), so shards build concurrently while the calling goroutine
// merges: a bounded pipeline over a window of W = min(2×workers, ranks)
// reused accumulator arrays. The merge hands out the ranks: it queues ranks
// 0..W-1, and queues rank r+W only once rank r is merged, so slot r mod W
// holds one rank at a time however the workers are scheduled. Embedding
// memory is O(workers×|V|), not O(ranks×|V|). The merge order fixes every
// float sum, so results are identical at every Parallelism setting;
// EmbedRun delegates here, so the shard path is the only embedding path.
func (p *PAG) EmbedRunParallel(run *trace.Run, pmu PMUModel, opts BuildOptions) {
	pmu = pmu.withDefaults()
	p.NRanks = run.NRanks
	p.NThreads = run.ThreadsPerRank
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n, nv := len(run.Events), p.G.NumVertices()
	workers = min(workers, n)
	if workers <= 1 {
		accs := make([]embedAcc, nv)
		for r := 0; r < n; r++ {
			p.embedRankShard(run, r, accs, pmu)
			p.mergeEmbed(r, accs)
		}
		return
	}
	slots := make([][]embedAcc, min(2*workers, n))
	ready := make([]chan struct{}, len(slots)) // slot filled, awaiting merge
	todo := make(chan int, len(slots))         // ranks handed out, not yet merged
	for i := range slots {
		slots[i] = make([]embedAcc, nv)
		ready[i] = make(chan struct{}, 1)
		todo <- i
	}
	if len(slots) == n {
		close(todo)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range todo {
				if embedFillHook != nil {
					embedFillHook(r)
				}
				s := r % len(slots)
				p.embedRankShard(run, r, slots[s], pmu)
				ready[s] <- struct{}{}
			}
		}()
	}
	for r := 0; r < n; r++ {
		s := r % len(slots)
		<-ready[s]
		p.mergeEmbed(r, slots[s])
		if next := r + len(slots); next < n {
			todo <- next // never blocks: at most W ranks are out at once
			if next == n-1 {
				close(todo)
			}
		}
	}
	wg.Wait()
}

// embedFillHook, when set, runs in the worker between receiving a rank and
// filling its slot; tests use it to stall a worker there.
var embedFillHook func(rank int)

// mergeEmbed adds one rank's accumulators to the PAG's vertex metrics and
// zeroes them for reuse.
func (p *PAG) mergeEmbed(rank int, accs []embedAcc) {
	for vi := range accs {
		a := &accs[vi]
		if a.set == 0 {
			continue
		}
		v := p.G.Vertex(graph.VertexID(vi))
		if a.set&accExcl != 0 {
			v.AddMetric(MetricExclTime, a.excl)
		}
		if a.set&accCount != 0 {
			v.AddMetric(MetricCount, a.count)
		}
		if a.set&accWait != 0 {
			v.AddMetric(MetricWait, a.wait)
		}
		if a.set&accBytes != 0 {
			v.AddMetric(MetricBytes, a.bytes)
		}
		if a.set&accCycles != 0 {
			v.AddMetric(MetricCycles, a.cycles)
		}
		if a.set&accInstrs != 0 {
			v.AddMetric(MetricInstrs, a.instrs)
		}
		if a.set&accCmiss != 0 {
			v.AddMetric(MetricCacheMiss, a.cmiss)
		}
		if a.set&accTime != 0 {
			v.AddMetric(MetricTime, a.time)
		}
		if a.set&accWaitVec != 0 {
			addVecAt(v, MetricWait+"_vec", rank, p.NRanks, a.waitVec)
		}
		if a.set&accTimeVec != 0 {
			addVecAt(v, MetricTime+"_vec", rank, p.NRanks, a.timeVec)
		}
		*a = embedAcc{}
	}
}

// addVecAt is Vertex.AddVecAt with a new vector's capacity sized for every
// rank, so it grows in place as later ranks merge.
func addVecAt(v *graph.Vertex, m string, rank, nranks int, val float64) {
	if v.Vec(m) == nil {
		v.SetVec(m, make([]float64, 0, nranks))
	}
	v.AddVecAt(m, rank, val)
}

// embedRankShard folds one rank's events into accs, which must be zeroed,
// mirroring the per-event logic of the paper's data-embedding step.
func (p *PAG) embedRankShard(run *trace.Run, rank int, accs []embedAcc, pmu PMUModel) {
	evs := run.Events[rank]
	for i := range evs {
		e := &evs[i]
		leaf := p.resolveCtx(run.CCT, e.Ctx, e.Node)
		if leaf == graph.NoVertex {
			continue
		}
		a := &accs[leaf]
		dur := e.Dur()
		a.excl += dur
		a.count++
		a.set |= accExcl | accCount
		if e.Wait > 0 {
			a.wait += e.Wait
			a.waitVec += e.Wait
			a.set |= accWait | accWaitVec
		}
		if e.Bytes > 0 {
			a.bytes += e.Bytes
			a.set |= accBytes
		}
		if e.Kind == trace.KindCompute {
			a.cycles += dur * pmu.CyclesPerUS
			a.set |= accCycles
			if n, ok := p.Prog.Node(e.Node).(*ir.Compute); ok {
				a.instrs += dur * n.Flops * pmu.InstrPerFlop * pmu.CyclesPerUS
				a.cmiss += dur * n.MemBytes * pmu.CyclesPerUS / pmu.CacheLineBytes
				a.set |= accInstrs | accCmiss
			}
		}
		// Inclusive time along the full calling context. Thread-level events
		// inside a region would double-count against the region event that
		// already covers their span, so only rank-level events propagate.
		if e.Thread < 0 {
			for ctx := e.Ctx; ctx != trace.NoCtx; ctx = run.CCT.Parent(ctx) {
				av := p.VertexOf(run.CCT.Node(ctx))
				if av == graph.NoVertex {
					continue
				}
				aa := &accs[av]
				aa.time += dur
				aa.timeVec += dur
				aa.set |= accTime | accTimeVec
			}
		} else {
			a.time += dur
			a.timeVec += dur
			a.set |= accTime | accTimeVec
		}
	}
}

// resolveCtx resolves an event to its top-down vertex by walking the
// calling context from the entry function through the PAG, mirroring the
// search in Figure 3 of the paper. It verifies each step is an IR
// parent-child or call relation by construction of the CCT and falls back
// to the direct node mapping when the context is missing.
func (p *PAG) resolveCtx(cct *trace.CCT, ctx trace.CtxID, node ir.NodeID) graph.VertexID {
	if ctx != trace.NoCtx {
		if leaf := p.VertexOf(cct.Node(ctx)); leaf != graph.NoVertex {
			return leaf
		}
	}
	return p.VertexOf(node)
}

// MarkDynamicCallees completes indirect-call vertices with the callees
// observed at runtime: for each unresolved call vertex whose events exist,
// the dynamic phase drops the unresolved mark. (In this reproduction
// indirect calls execute as flat costs, so no new edges appear, but the
// marker flip mirrors the paper's static/dynamic split.)
func (p *PAG) MarkDynamicCallees(run *trace.Run) {
	seen := map[ir.NodeID]bool{}
	run.ForEach(func(e *trace.Event) { seen[e.Node] = true })
	for i := 0; i < p.G.NumVertices(); i++ {
		v := p.G.Vertex(graph.VertexID(i))
		if v.Attr(AttrUnresolved) == "true" && seen[p.NodeOf(graph.VertexID(i))] {
			v.SetAttr(AttrUnresolved, "resolved-dynamic")
		}
	}
}
