package main

import (
	"path/filepath"
	"time"
)

// requestWorkload drives request-topdown and request-parallel: one
// closed-loop client sending cold ExecuteRequest calls over whole passes
// of the matrix. The traced run spends half the time untraced (for the
// overhead and GC figures) and half replaying the matrix with spans.
func requestWorkload(o options, s *setupResult, m []entry, withServe bool) (*outcome, error) {
	budget := time.Duration(o.seconds) * time.Second
	out := &outcome{values: map[string]float64{}, details: map[string]any{}}
	if !o.trace {
		rr := runRequests(m, s.want, o.seed, budget)
		out.attempted, out.failed, out.wrong = rr.attempted, rr.failed, rr.wrong
		n := len(rr.ms)
		q90, q99 := tailQuantile(0.90, n), tailQuantile(0.99, n)
		ok := float64(rr.attempted - rr.failed)
		secs := rr.window.Seconds()
		out.values["request_ms.p50"] = entryQuantile(rr.perEntry, 0.5)
		out.values["request_ms.p90"] = entryQuantile(rr.perEntry, q90)
		out.values["requests_per_s"] = float64(n) / secs
		out.values["alloc_mb_per_req"] = rr.allocMB / float64(max(n, 1))
		out.values["job_ms.p50"] = entryQuantile(rr.turnMS, 0.5)
		out.values["job_ms.p99"] = entryQuantile(rr.turnMS, q99)
		out.values["goodput_jobs_per_s"] = ok / secs
		out.details["samples"] = n
		out.details["passes"] = rr.attempted / len(m)
		out.details["window_s"] = secs
		out.details["request_ms.p90_quantile"] = q90
		out.details["job_ms.p99_quantile"] = q99
		out.details["entries"] = rr.entryMedians()
		return out, nil
	}

	rr := runRequests(m, s.want, o.seed, budget/2)
	tr := traceRequests(m, s.want, o.seed, budget/2)
	out.attempted = rr.attempted + tr.attempted
	out.failed = rr.failed + tr.failed
	out.wrong = append(rr.wrong, tr.wrong...)
	spans := tr.rec.snapshot()
	layerMetrics(out.values, spans)
	out.values["request.untraced_ms"] = untracedMS(spans)
	out.values["trace.overhead_frac"] = overhead(entryQuantile(tr.perEntry(spans), 0.5), entryQuantile(rr.perEntry, 0.5))
	out.values["gc.cpu_frac"] = rr.gcCPU
	out.values["gc.cycles_per_op"] = rr.gcCycles / float64(max(len(rr.ms), 1))
	out.details["untraced_samples"] = len(rr.ms)
	out.details["traced_samples"] = tr.attempted
	out.details["traced_entries"] = tr.entries // the matrix entry of each span's op
	out.spans = map[string][]span{"requests": spans}
	if !withServe {
		for _, d := range perLayer {
			if _, ok := out.values[d.Name]; !ok {
				out.values[d.Name] = 0 // the serve and store layers did not run
			}
		}
		return out, nil
	}
	// The serve and store layers, measured on serve-mix's reference
	// traffic: a fresh server, one rung at the reference rate, the oracle.
	env, err := openServe(filepath.Join(o.root, ".bench_build", "tmp"), o.seed)
	if err != nil {
		return nil, err
	}
	r, err := runServe(env, o.seed, budget/2, true, true)
	if err != nil {
		return nil, err
	}
	attempted, failed := r.counts()
	out.attempted += attempted
	out.failed += failed
	out.wrong = append(out.wrong, r.wrong...)
	r.serveLayers(out.values)
	// No request of the matrix has two runs or a policy; the served
	// requests do, so their replays give the diff and policy layers.
	out.values["diff.ms"] = median(perOp(r.oracleSpans, duration, "diff"))
	out.values["policy.ms"] = median(perOp(r.oracleSpans, duration, "policy"))
	out.details["serve"] = r.details()
	out.spans["serve"] = r.spans
	out.spans["serve_replays"] = r.oracleSpans
	return out, nil
}

// layerMetrics fills the per-layer metrics of the request path from the
// spans of traced replays: each is a median over operations of the
// operation's total in that layer. A layer no operation reached reads 0.
func layerMetrics(v map[string]float64, spans []span) {
	med := func(f func(int, span) (float64, bool), names ...string) float64 {
		return median(perOp(spans, f, names...))
	}
	v["ir.load_ms"] = med(duration, "ir.load")
	v["lint.ms"] = med(duration, "lint")
	v["lint.alloc_mb"] = med(allocated, "lint")
	v["mpisim.ms"] = med(duration, "mpisim")
	v["mpisim.alloc_mb"] = med(allocated, "mpisim")
	v["mpisim.events"] = med(counted("events"), "mpisim")
	v["pag.topdown_ms"] = med(duration, "pag.topdown.build", "pag.topdown.embed")
	v["pag.topdown_alloc_mb"] = med(allocated, "pag.topdown.build", "pag.topdown.embed")
	v["pag.parallel_ms"] = med(duration, "pag.parallel")
	v["pag.parallel_alloc_mb"] = med(allocated, "pag.parallel")
	v["pag.vertices"] = med(counted("vertices"), "pag.parallel")
	v["pag.edges"] = med(counted("edges"), "pag.parallel")
	v["pag.size_ms"] = med(duration, "pag.size")
	v["pag.size_alloc_mb"] = med(allocated, "pag.size")
	v["graph.freeze_ms"] = med(duration, "graph.freeze")
	v["core.analyze_ms"] = med(duration, "core.analyze")
	v["core.analyze_alloc_mb"] = med(allocated, "core.analyze")
	v["core.stages"] = med(counted("stages"), "core.analyze")
	v["core.passes"] = med(counted("passes"), "core.analyze")
	v["sdf.predict_ms"] = med(duration, "sdf.predict")
	v["diff.ms"] = med(duration, "diff")
	v["policy.ms"] = med(duration, "policy")
}

// untracedMS is the median over requests of the time no layer span
// covers: the self time of the request and collect spans.
func untracedMS(spans []span) float64 {
	self := selfTimes(spans)
	return median(perOp(spans, func(i int, _ span) (float64, bool) {
		return self[i], true
	}, "request", "collect"))
}

// overhead is the traced median request time over the untraced one,
// minus 1.
func overhead(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return traced/untraced - 1
}

// serveWorkload drives serve-mix: the offered-rate ladder through the
// server set-up left open, then the output oracle over every distinct
// served request.
func serveWorkload(o options, s *setupResult) (*outcome, error) {
	r, err := runServe(s.env, o.seed, time.Duration(o.seconds)*time.Second, o.trace, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, details: r.details()}
	out.attempted, out.failed = r.counts()
	out.wrong = r.wrong
	if !o.trace {
		r.endToEnd(out.values, out.details)
		return out, nil
	}
	layerMetrics(out.values, r.oracleSpans)
	out.values["request.untraced_ms"] = untracedMS(r.oracleSpans)
	out.values["trace.overhead_frac"] = overhead(median(perOp(r.oracleSpans, duration, "request")), median(r.oracleMS))
	rt0, rt1 := r.rungs[0].runtime0, r.rungs[len(r.rungs)-1].runtime1
	_, _, completed := r.tally()
	out.values["gc.cpu_frac"] = 0
	if used := rt1.cpuUsed - rt0.cpuUsed; used > 0 {
		out.values["gc.cpu_frac"] = (rt1.cpuGC - rt0.cpuGC) / used
	}
	out.values["gc.cycles_per_op"] = float64(rt1.gcCycles-rt0.gcCycles) / float64(max(completed, 1))
	r.serveLayers(out.values)
	out.spans = map[string][]span{"serve": r.spans, "oracle": r.oracleSpans}
	return out, nil
}
