package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"perflow"
	"perflow/internal/collector"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// Hybrid-mode instrumentation costs of the collector (virtual µs), needed
// to replay its instrumented simulator run. If the collector changes them,
// the replayed reports stop matching the digest manifest.
const (
	hybridEventOverhead = 0.05
	samplingPeriodUS    = 5000
	sampleCostUS        = 2
)

// replayRequest runs one request through the same sequence of exported
// calls that perflow.(*PerFlow).ExecuteRequest makes, with a span around
// each layer call, and writes the report to w. The caller checks that the
// report equals the untraced one, which is what makes the spans describe
// the program the untraced run timed.
func replayRequest(ctx context.Context, rec *recorder, op int, req perflow.AnalysisRequest, w io.Writer) error {
	root := rec.begin(op, -1, "request", true)
	defer root.end(nil)
	parent := root.idx

	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return err
	}
	plan, err := perflow.ParseFaultPlan(req.Faults)
	if err != nil {
		return err
	}
	if plan != nil {
		return fmt.Errorf("replay: fault plans are not replayed")
	}
	pol, err := perflow.ParsePolicyRules(req.Policies)
	if err != nil {
		return err
	}
	pf := perflow.New()
	pf.NoPlan = req.NoPlan

	load := func() (*ir.Program, error) {
		t := rec.begin(op, parent, "ir.load", true)
		defer t.end(nil)
		if req.Workload != "" {
			return workloads.Get(req.Workload)
		}
		return ir.Parse(strings.NewReader(req.DSL))
	}
	// lintGate mirrors the lint step of perflow.(*PerFlow).RunCtx.
	lintGate := func(p *ir.Program) ([]lint.Diagnostic, error) {
		if err := p.Finalize(); err != nil {
			return nil, err
		}
		if req.SkipLint {
			return nil, nil
		}
		t := rec.begin(op, parent, "lint", true)
		diags, err := lint.Run(p, lint.Options{})
		t.end(nil)
		if err != nil {
			return nil, err
		}
		if lint.HasErrors(diags) {
			return nil, &lint.Error{Diagnostics: diags}
		}
		return diags, nil
	}
	collect := func(p *ir.Program, ranks int, withParallel bool, diags []lint.Diagnostic) (*perflow.Result, error) {
		res, err := replayCollect(ctx, rec, op, parent, p, req, ranks, withParallel)
		if err != nil {
			return nil, err
		}
		if len(diags) > 0 {
			res.TopDown.AttachDiagnostics(diags)
		}
		return res, nil
	}
	// loadAndCollect mirrors RunWorkloadCtx / RunDSLCtx: each call loads
	// and lints the program afresh.
	loadAndCollect := func(ranks int, withParallel bool) (*perflow.Result, error) {
		p, err := load()
		if err != nil {
			return nil, err
		}
		diags, err := lintGate(p)
		if err != nil {
			return nil, err
		}
		return collect(p, ranks, withParallel, diags)
	}

	var res, large *perflow.Result
	needsParallel := perflow.AnalysisNeedsParallelView(req.Analysis)
	switch {
	case perflow.AnalysisNeedsTwoScales(req.Analysis):
		// RunAtScalesCtx: one load, one lint, two collections.
		p, err := load()
		if err != nil {
			return err
		}
		diags, err := lintGate(p)
		if err != nil {
			return err
		}
		if res, err = collect(p, req.Ranks, false, diags); err != nil {
			return err
		}
		if large, err = collect(p, req.Ranks2, needsParallel, diags); err != nil {
			return err
		}
	case req.Ranks2 > 0:
		if res, err = loadAndCollect(req.Ranks, needsParallel); err != nil {
			return err
		}
		if large, err = loadAndCollect(req.Ranks2, false); err != nil {
			return err
		}
	default:
		if res, err = loadAndCollect(req.Ranks, needsParallel); err != nil {
			return err
		}
	}

	t := rec.begin(op, parent, "core.analyze", true)
	_, err = pf.AnalyzeCtx(ctx, res, large, req.Analysis, req.Top, w)
	var counts map[string]float64
	if tr := pf.LastTrace; tr != nil {
		counts = map[string]float64{"passes": float64(len(tr.Spans))}
		if tr.Plan != nil {
			counts["stages"] = float64(len(tr.Plan.Stages))
		}
	}
	t.end(counts)
	if err != nil {
		return err
	}

	t = rec.begin(op, parent, "sdf.predict", true)
	pred, perr := perflow.Predict(res.Run.Program, req.Ranks)
	t.end(nil)
	if perr == nil && req.Predict {
		pred.WriteComparison(w, res)
	} else if perr != nil && req.Predict {
		fmt.Fprintf(w, "-- static prediction --\nunavailable: %v\n", perr)
	}

	var diff *perflow.DiffReport
	if large != nil {
		t = rec.begin(op, parent, "diff", true)
		diff = perflow.Diff(res, large)
		t.end(nil)
	}
	if len(pol.Rules) > 0 {
		in := &perflow.GateInput{Result: res, Diff: diff}
		if large != nil {
			in.Result = large
		}
		if pf.LastTrace != nil {
			in.Failures = pf.LastTrace.Failures
		}
		t = rec.begin(op, parent, "policy", true)
		_, err = perflow.EvaluatePolicy(pol, in)
		t.end(nil)
	}
	return err
}

// replayCollect mirrors collector.CollectCtx in hybrid mode without faults,
// inside a "collect" span.
func replayCollect(ctx context.Context, rec *recorder, op, parent int, p *ir.Program, req perflow.AnalysisRequest, ranks int, withParallel bool) (*perflow.Result, error) {
	group := rec.begin(op, parent, "collect", true)
	defer group.end(nil)
	parent = group.idx
	res := &collector.Result{}

	t := rec.begin(op, parent, "pag.topdown.build", true)
	t0 := time.Now()
	td := pag.BuildTopDown(p)
	res.StaticTime = time.Since(t0)
	t.end(nil)
	res.TopDown = td

	base := mpisim.Config{NRanks: ranks, Threads: req.Threads}
	t = rec.begin(op, parent, "mpisim", true)
	clean, err := mpisim.RunCtx(ctx, p, base)
	if err != nil {
		t.end(nil)
		return nil, err
	}
	t.end(map[string]float64{"events": float64(clean.NumEvents())})
	res.CleanTime = clean.TotalTime()

	instr := base
	instr.PerEventOverhead = hybridEventOverhead
	instr.SamplingPeriod = samplingPeriodUS
	instr.SampleCost = sampleCostUS
	t = rec.begin(op, parent, "mpisim", true)
	run, err := mpisim.RunCtx(ctx, p, instr)
	if err != nil {
		t.end(nil)
		return nil, err
	}
	t.end(map[string]float64{"events": float64(run.NumEvents())})
	res.Run = run
	res.InstrumentedTime = run.TotalTime()
	if res.CleanTime > 0 {
		res.DynamicOverheadPct = 100 * (res.InstrumentedTime - res.CleanTime) / res.CleanTime
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	buildOpts := pag.BuildOptions{Parallelism: req.Parallelism}
	t = rec.begin(op, parent, "pag.topdown.embed", true)
	td.EmbedRunParallel(run, pag.PMUModel{}, buildOpts)
	td.MarkDynamicCallees(run)
	res.Coverage = collector.CoverageOf(run)
	t.end(nil)
	if res.Coverage != nil {
		return nil, fmt.Errorf("replay: degraded runs are not replayed")
	}

	t = rec.begin(op, parent, "pag.size", true)
	res.PAGBytes = td.SerializedSize()
	t.end(nil)
	t = rec.begin(op, parent, "graph.freeze", true)
	td.G.Frozen()
	t.end(nil)

	if withParallel {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t = rec.begin(op, parent, "pag.parallel", true)
		res.Parallel = pag.BuildParallelOpts(run, buildOpts)
		nv, ne := res.Parallel.Size()
		t.end(map[string]float64{"vertices": float64(nv), "edges": float64(ne)})
		t = rec.begin(op, parent, "pag.size", true)
		res.PAGBytes += res.Parallel.SerializedSize()
		t.end(nil)
		t = rec.begin(op, parent, "graph.freeze", true)
		res.Parallel.G.Frozen()
		t.end(nil)
	}
	return res, nil
}
