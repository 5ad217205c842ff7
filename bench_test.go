package perflow_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benchmarks DESIGN.md calls out. Benchmarks
// run at laptop-feasible scales (the pflow-bench command uses the paper's
// scales); each measures the end-to-end cost of regenerating its artifact.
//
//	go test -bench=. -benchmem

import (
	"io"
	"testing"
	"time"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/experiments"
	"perflow/internal/graph"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

const benchRanks = 32

// BenchmarkTable1Collect measures hybrid static-dynamic collection — the
// pipeline behind every Table 1 row — per program.
func BenchmarkTable1Collect(b *testing.B) {
	for _, name := range []string{"cg", "ep", "lu", "zeusmp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := collector.Collect(p, collector.Options{Ranks: benchRanks})
				if err != nil {
					b.Fatal(err)
				}
				if res.PAGBytes <= 0 {
					b.Fatal("empty PAG")
				}
			}
		})
	}
}

// BenchmarkTable2PAGBuild measures PAG construction (both views) — the
// Table 2 pipeline — on the largest model. The "sequential" sub-benchmark
// pins the sharded builder to one worker; "parallel" uses every core. The
// built graphs are byte-identical either way (see the pag shard tests), so
// the pair isolates the worker pool's wall-clock effect.
func BenchmarkTable2PAGBuild(b *testing.B) {
	p := workloads.LAMMPS(false)
	run, err := mpisim.Run(p, mpisim.Config{NRanks: benchRanks})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				td := pag.BuildTopDown(p)
				pv := pag.BuildParallelOpts(run, pag.BuildOptions{Parallelism: cfg.par})
				nv, _ := td.Size()
				mv, _ := pv.Size()
				if nv == 0 || mv == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// BenchmarkCaseAScalability measures the full §5.3 experiment: two runs of
// ZeusMP plus the scalability-analysis paradigm (Figures 9 and 10).
func BenchmarkCaseAScalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseA(8, benchRanks, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if res.Analysis.Backtracked.Len() == 0 {
			b.Fatal("no backtracked paths")
		}
	}
}

// BenchmarkCaseBCausal measures the §5.4 experiment: LAMMPS run, imbalance
// detection and the causal-analysis loop (Figures 11 and 12).
func BenchmarkCaseBCausal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseB(16, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CausePathLocations) == 0 {
			b.Fatal("no causal paths")
		}
	}
}

// BenchmarkCaseCVite measures the §5.5 experiment: the Figure 13 thread
// sweep plus contention detection (Figures 14-16).
func BenchmarkCaseCVite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseC(4, []int{2, 4, 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.ContentionEmbeddings == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// BenchmarkBaselineComparison measures the §5.3 four-tool comparison.
func BenchmarkBaselineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Compare(benchRanks, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("missing tools")
		}
	}
}

// BenchmarkMPISimulator isolates the discrete-event simulator (the
// substrate all experiments share).
func BenchmarkMPISimulator(b *testing.B) {
	for _, name := range []string{"cg", "zeusmp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := mpisim.Run(p, mpisim.Config{NRanks: benchRanks})
				if err != nil {
					b.Fatal(err)
				}
				if run.NumEvents() == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkPassHotspot isolates the hotspot pass on an embedded PAG.
func BenchmarkPassHotspot(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks, SkipParallelView: true})
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllVertices(res.TopDown)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Hotspot(all, pag.MetricExclTime, 10).Len() == 0 {
			b.Fatal("no hotspots")
		}
	}
}

// BenchmarkPassCausalLCA isolates causal analysis (LCA) on a parallel view.
func BenchmarkPassCausalLCA(b *testing.B) {
	res, err := collector.Collect(workloads.LAMMPS(false), collector.Options{Ranks: 16})
	if err != nil {
		b.Fatal(err)
	}
	victims := core.AllVertices(res.Parallel).FilterName("MPI_Wait*").SortBy(pag.MetricWait).Top(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Causal(victims).Len() == 0 {
			b.Fatal("no causes")
		}
	}
}

// BenchmarkLCAQueries isolates the bitset LCA kernel: one finder, repeated
// victim-pair queries on a LAMMPS parallel view (the causal pass's access
// pattern — ancestor bitsets amortize across queries).
func BenchmarkLCAQueries(b *testing.B) {
	res, err := collector.Collect(workloads.LAMMPS(false), collector.Options{Ranks: 16})
	if err != nil {
		b.Fatal(err)
	}
	victims := core.AllVertices(res.Parallel).FilterName("MPI_Wait*").SortBy(pag.MetricWait).Top(8).V
	if len(victims) < 2 {
		b.Fatal("not enough victims")
	}
	g := res.Parallel.G
	f := graph.NewLCAFinder(g)
	if !f.Valid() {
		g, _ = graph.DAGCopy(g)
		f = graph.NewLCAFinder(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for x := 0; x < len(victims); x++ {
			for y := x + 1; y < len(victims); y++ {
				if lca, _, _ := f.Query(victims[x], victims[y]); lca != graph.NoVertex {
					hits++
				}
			}
		}
		if hits == 0 {
			b.Fatal("no common ancestors")
		}
	}
}

// BenchmarkPassContentionMatch isolates subgraph matching on a Vite
// parallel view (Figure 16's engine).
func BenchmarkPassContentionMatch(b *testing.B) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 8, Threads: 8})
	if err != nil {
		b.Fatal(err)
	}
	pv := pag.BuildParallel(run)
	pattern := pag.ContentionPattern()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embs := graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 256})
		if len(embs) == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// BenchmarkAblationHybridVsDynamic quantifies the §3.2 claim (static
// extraction cuts runtime overhead) as a benchmark.
func BenchmarkAblationHybridVsDynamic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHybridVsDynamic(16, []string{"cg"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].DynamicPct <= rows[0].HybridPct {
			b.Fatal("ablation direction violated")
		}
	}
}

// BenchmarkAblationSamplingVsTracing measures the two collection
// philosophies end to end.
func BenchmarkAblationSamplingVsTracing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSamplingVsTracing(16, []string{"cg"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].TracingB <= 0 {
			b.Fatal("no trace bytes")
		}
	}
}

// BenchmarkAblationMatchPruning compares the matcher with and without
// label-based candidate pruning.
func BenchmarkAblationMatchPruning(b *testing.B) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 4, Threads: 8})
	if err != nil {
		b.Fatal(err)
	}
	pv := pag.BuildParallel(run)
	pattern := pag.ContentionPattern()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 128})
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MatchSubgraph(pv.G, pattern, graph.MatchOptions{MaxEmbeddings: 128, DisableLabelPruning: true})
		}
	})
}

// BenchmarkParallelViewScaling measures parallel-view construction across
// rank counts (Table 2's growth law).
func BenchmarkParallelViewScaling(b *testing.B) {
	for _, ranks := range []int{8, 32, 64} {
		ranks := ranks
		b.Run(itoa(ranks), func(b *testing.B) {
			run, err := mpisim.Run(workloads.ZeusMP(false), mpisim.Config{NRanks: ranks})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pv := pag.BuildParallel(run)
				if nv, _ := pv.Size(); nv == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// BenchmarkPAGSerialize measures the compact binary encoder (Table 1's
// space-cost path).
func BenchmarkPAGSerialize(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.TopDown.SerializedSize() <= 0 {
			b.Fatal("empty serialization")
		}
	}
}

// BenchmarkFlowGraphParallel measures the concurrent PerFlowGraph scheduler
// on an 8-branch fan-out of sleep-calibrated passes feeding a union. The
// "sequential" sub-benchmark pins the worker pool to one worker (the old
// engine's behavior); "parallel" gives it one worker per branch. With 2 ms
// of simulated work per branch the parallel run should be >=2x faster.
func BenchmarkFlowGraphParallel(b *testing.B) {
	const branches = 8
	const work = 2 * time.Millisecond
	p, err := workloads.Get("cg")
	if err != nil {
		b.Fatal(err)
	}
	td := pag.BuildTopDown(p)
	all := core.AllVertices(td)
	build := func() *core.PerFlowGraph {
		g := core.NewPerFlowGraph()
		src := g.AddSource("src", all)
		u := g.AddPass(core.UnionPass())
		for i := 0; i < branches; i++ {
			branch := g.Chain(src, core.PassFunc{
				PassName: "sleep_" + itoa(i),
				NumIn:    1,
				Fn: func(in []*core.Set) ([]*core.Set, error) {
					time.Sleep(work)
					return in, nil
				},
			})
			if err := g.Connect(branch, 0, u, i); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", branches}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			g := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := g.Run(core.WithMaxWorkers(cfg.workers))
				if err != nil {
					b.Fatal(err)
				}
				if res.Trace().MaxParallelism() > cfg.workers {
					b.Fatal("worker bound violated")
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkGPUJacobi measures the CUDA-extension pipeline: simulate both
// Jacobi variants and extract the critical path of the naive one.
func BenchmarkGPUJacobi(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		naive, err := mpisim.Run(workloads.JacobiGPU(false), mpisim.Config{NRanks: benchRanks})
		if err != nil {
			b.Fatal(err)
		}
		over, err := mpisim.Run(workloads.JacobiGPU(true), mpisim.Config{NRanks: benchRanks})
		if err != nil {
			b.Fatal(err)
		}
		if over.TotalTime() >= naive.TotalTime() {
			b.Fatal("overlap did not help")
		}
		pv := pag.BuildParallel(naive)
		cp := core.CriticalPath(core.AllVertices(pv))
		if cp.Len() == 0 {
			b.Fatal("no critical path")
		}
	}
}

// BenchmarkPAGPersistence measures PAG save/load round trips (the offline-
// analysis workflow).
func BenchmarkPAGPersistence(b *testing.B) {
	res, err := collector.Collect(workloads.ZeusMP(false), collector.Options{Ranks: benchRanks, SkipParallelView: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := dir + "/z.pag"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.TopDown.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := pag.LoadFile(path, res.TopDown.Prog); err != nil {
			b.Fatal(err)
		}
	}
}
