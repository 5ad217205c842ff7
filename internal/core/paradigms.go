package core

import (
	"context"
	"fmt"
	"io"

	"perflow/internal/pag"
)

// Performance analysis paradigms (paper §4.4): pre-built PerFlowGraphs for
// common analysis tasks — an MPI profiler (after mpiP), a critical-path
// paradigm (after Böhme/Schmitt), a scalability-analysis paradigm (after
// ScalAna, Listing 7 / Figure 8), and the communication-analysis task of
// §2.2 (Listing 1 / Figure 2). Every paradigm threads the caller's context
// into the concurrent engine (RunCtx) and surfaces the run's
// ExecutionTrace for overhead accounting.

// MPIProfileRow is one call-site row of the MPI profiler paradigm.
type MPIProfileRow struct {
	Name     string
	Site     string // debug info
	Time     float64
	Percent  float64 // of summed application time
	Count    int
	Bytes    float64
	MeanWait float64
}

// MPIProfiler produces an mpiP-style statistical profile of the top-down
// view: per MPI call site, aggregate time, share of total time, call count
// and message volume.
func MPIProfiler(env *pag.PAG) []MPIProfileRow {
	comm := AllVertices(env).FilterName("MPI_*").SortBy(pag.MetricExclTime)
	var appTime float64
	all := AllVertices(env)
	for _, vid := range all.V {
		appTime += env.G.Vertex(vid).Metric(pag.MetricExclTime)
	}
	rows := make([]MPIProfileRow, 0, comm.Len())
	for _, vid := range comm.V {
		v := env.G.Vertex(vid)
		t := v.Metric(pag.MetricExclTime)
		if t == 0 && v.Metric(pag.MetricCount) == 0 {
			continue
		}
		row := MPIProfileRow{
			Name:  v.Name,
			Site:  v.Attr(pag.AttrDebug),
			Time:  t,
			Count: int(v.Metric(pag.MetricCount)),
			Bytes: v.Metric(pag.MetricBytes),
		}
		if appTime > 0 {
			row.Percent = 100 * t / appTime
		}
		if row.Count > 0 {
			row.MeanWait = v.Metric(pag.MetricWait) / float64(row.Count)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteMPIProfile renders the profiler rows as text.
func WriteMPIProfile(w io.Writer, rows []MPIProfileRow) {
	table := [][]string{{"call", "site", "time(us)", "app%", "count", "bytes", "mean-wait"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Name, r.Site,
			formatMetric(r.Time), fmt.Sprintf("%.2f", r.Percent),
			fmt.Sprintf("%d", r.Count), formatMetric(r.Bytes), formatMetric(r.MeanWait),
		})
	}
	writeAligned(w, table)
}

// CriticalPathParadigm builds and runs the critical-path PerFlowGraph on a
// parallel-view PAG, reporting the heaviest dependence chain. It returns
// the path set plus the run's execution trace.
func CriticalPathParadigm(ctx context.Context, parallel *pag.PAG, w io.Writer) (*Set, *ExecutionTrace, error) {
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(parallel))
	cp := g.Chain(src, CriticalPathPass())
	g.Chain(cp, ReportPass(w, "critical path", []string{"name", "rank", "etime", "wait", "debug"}, 30))
	res, err := g.RunCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	return res.Output(cp), res.Trace(), nil
}

// ScalabilityResult carries the scalability paradigm's findings.
type ScalabilityResult struct {
	// Diff is the full differential set (over the diff PAG).
	Diff *Set
	// ScalingLoss are the top vertices by scaling loss.
	ScalingLoss *Set
	// Imbalanced are the imbalance-analysis outputs.
	Imbalanced *Set
	// Backtracked is the union projected onto the parallel view with the
	// detected propagation paths.
	Backtracked *Set
	// RootCauses are the origin vertices of the backtracking paths (path
	// sources with no further dependence in-edges).
	RootCauses *Set
	// Trace is the engine's per-pass instrumentation for the paradigm run.
	Trace *ExecutionTrace
}

// ScalabilityAnalysis is the paradigm of Listing 7 / Figure 8: differential
// analysis between a small-scale and a large-scale run, hotspot detection
// on the scaling loss, imbalance analysis, union, and a backtracking pass
// over the parallel view of the large run.
func ScalabilityAnalysis(ctx context.Context, small, large, parallelLarge *pag.PAG, topN int, w io.Writer) (*ScalabilityResult, error) {
	if topN <= 0 {
		topN = 10
	}
	g := NewPerFlowGraph()
	srcSmall := g.AddSource("pag_small", AllVertices(small))
	srcLarge := g.AddSource("pag_large", AllVertices(large))

	diff := g.AddPass(DifferentialPass(pag.MetricTime, true))
	g.Connect(srcSmall, 0, diff, 0)
	g.Connect(srcLarge, 0, diff, 1)

	// Hotspots of the scaling loss, projected back onto the large top-down
	// view (the diff set lives over the diff PAG).
	hot := g.Chain(diff, HotspotPass(MetricScaleLoss, topN))
	proj := g.Chain(hot, ProjectPass(large))

	// Imbalance on the large run's per-rank vectors. The pass annotates the
	// large PAG's vertices (SetMetric), which the differential pass reads —
	// an ordering edge keeps the two from touching those vertices at once.
	imb := g.After(g.Chain(srcLarge, ImbalancePass(pag.MetricTime, 1.5)), diff)

	union := g.AddPass(UnionPass())
	g.Connect(proj, 0, union, 0)
	g.Connect(imb, 0, union, 1)

	// Backtracking runs on the parallel view, seeded from the flow
	// vertices with the largest waiting time among the projected
	// candidates (every rank's copy of an imbalanced loop is projected;
	// only the delayed instances are worth unwinding).
	bt := g.Chain(union,
		ProjectPass(parallelLarge),
		HotspotPass(pag.MetricTime, 64),
		BacktrackPass(0))

	if w != nil {
		g.Chain(bt, ReportPass(w, "scalability analysis: backtracked root-cause paths",
			[]string{"name", "rank", "time", "wait", "debug"}, 40))
	}

	run, err := g.RunCtx(ctx)
	if err != nil {
		return nil, err
	}

	res := &ScalabilityResult{
		Diff:        run.Output(diff),
		ScalingLoss: run.Output(hot),
		Imbalanced:  run.Output(imb),
		Backtracked: run.Output(bt),
		Trace:       run.Trace(),
	}
	res.RootCauses = pathSources(res.Backtracked)
	return res, nil
}

// ScalabilityParadigmLoC reports the implementation effort of the
// scalability-analysis task expressed with the PerFlow API: the statement
// count of the PerFlowGraph construction in ScalabilityAnalysis (source/
// pass/connect/run statements), the number the paper compares against
// ScalAna's thousands of lines (§5.3: 27 lines, 7 high-level + 5 low-level
// APIs). The `pflow-bench loc` command cross-checks this against the
// runnable example in examples/scalability.
func ScalabilityParadigmLoC() int { return 27 }

// pathSources returns the vertices of s that are sources of the collected
// path edges (appear as a source but never as a destination).
func pathSources(s *Set) *Set {
	out := NewSet(s.PAG)
	isDst := map[int64]bool{}
	for _, e := range s.E {
		isDst[int64(s.PAG.G.Edge(e).Dst)] = true
	}
	inSet := map[int64]bool{}
	for _, v := range s.V {
		inSet[int64(v)] = true
	}
	for _, e := range s.E {
		src := s.PAG.G.Edge(e).Src
		if inSet[int64(src)] && !isDst[int64(src)] && !out.Contains(src) {
			out.V = append(out.V, src)
		}
	}
	// A vertex with no path edges at all is its own root cause.
	if len(s.E) == 0 {
		out.V = append(out.V, s.V...)
	}
	return out
}

// CommunicationAnalysis is the task of §2.2 (Listing 1 / Figure 2): filter
// communication vertices, detect hotspots, analyze imbalance, break the
// imbalanced calls down, and report. The returned trace carries the per-pass
// instrumentation of the run.
func CommunicationAnalysis(ctx context.Context, env *pag.PAG, topN int, w io.Writer) (imbalanced, breakdown *Set, trace *ExecutionTrace, err error) {
	if topN <= 0 {
		topN = 10
	}
	g := NewPerFlowGraph()
	src := g.AddSource("pag", AllVertices(env))
	imb := g.Chain(src,
		FilterPass("MPI_*"),
		HotspotPass(pag.MetricExclTime, topN),
		ImbalancePass(pag.MetricTime, 1.2))
	bd := g.Chain(imb, BreakdownPass())
	if w != nil {
		rep := g.AddPass(ReportPass(w, "communication analysis",
			[]string{"name", "comm-info", "debug-info", "etime", "wait", "imbalance", "breakdown"}, 20))
		g.Connect(imb, 0, rep, 0)
		g.Connect(bd, 0, rep, 1)
	}
	run, err := g.RunCtx(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return run.Output(imb), run.Output(bd), run.Trace(), nil
}

// ContentionResult carries the contention paradigm's findings (§5.5).
type ContentionResult struct {
	// Hotspots are the top vertices by exclusive time (Figure 15a).
	Hotspots *Set
	// Worse are the vertices degrading between the two thread counts
	// (Figure 15b).
	Worse *Set
	// Causes are the causal-analysis outputs on the parallel view.
	Causes *Set
	// Embeddings are the detected contention-pattern occurrences
	// (Figure 16).
	Embeddings *Set
	// Trace is the engine's per-pass instrumentation for the paradigm run.
	Trace *ExecutionTrace
}

// ContentionAnalysis is the PerFlowGraph of Figure 14: branches for
// comprehensive diagnosis — hotspot detection on the top-down view,
// differential analysis between a low and a high thread count, causal
// analysis, and contention detection via subgraph matching on the parallel
// view of the high-thread run. The four branches are independent, so the
// concurrent scheduler runs them in parallel.
func ContentionAnalysis(ctx context.Context, low, high, parallelHigh *pag.PAG, topN int, w io.Writer) (*ContentionResult, error) {
	if topN <= 0 {
		topN = 10
	}
	g := NewPerFlowGraph()
	srcLow := g.AddSource("pag_low", AllVertices(low))
	srcHigh := g.AddSource("pag_high", AllVertices(high))
	srcPar := g.AddSource("pag_parallel", AllVertices(parallelHigh))

	hot := g.Chain(srcHigh, HotspotPass(pag.MetricExclTime, topN))

	diff := g.AddPass(DifferentialPass(pag.MetricTime, false))
	g.Connect(srcLow, 0, diff, 0)
	g.Connect(srcHigh, 0, diff, 1)
	worse := g.Chain(diff, HotspotPass(MetricScaleLoss, topN))

	// Causal analysis around the degraded vertices, on the parallel view.
	causal := g.Chain(worse, ProjectPass(parallelHigh), CausalPass())

	// Contention detection across the whole parallel view.
	cont := g.Chain(srcPar, ContentionPass())

	if w != nil {
		g.Chain(cont, ReportPass(w, "contention analysis (Figure 14)",
			[]string{"name", "label", "rank", "wait"}, 16))
	}
	run, err := g.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &ContentionResult{
		Hotspots:   run.Output(hot),
		Worse:      run.Output(worse),
		Causes:     run.Output(causal),
		Embeddings: run.Output(cont),
		Trace:      run.Trace(),
	}, nil
}
