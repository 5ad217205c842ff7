package main

// metricDef is one metric of the benchmark. The end-to-end list and the
// per-layer list must match BENCHMARK.json, and README.md must document
// each metric (a test checks both).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"request_ms.p50", "ms", "lower"},
	{"request_ms.p90", "ms", "lower"},
	{"requests_per_s", "1/s", "higher"},
	{"alloc_mb_per_req", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_ms.p50", "ms", "lower"},
	{"job_ms.p99", "ms", "lower"},
	{"goodput_jobs_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"ir.load_ms", "ms", "lower"},
	{"lint.ms", "ms", "lower"},
	{"lint.alloc_mb", "MB", "lower"},
	{"mpisim.ms", "ms", "lower"},
	{"mpisim.alloc_mb", "MB", "lower"},
	{"mpisim.events", "count", "lower"},
	{"pag.topdown_ms", "ms", "lower"},
	{"pag.topdown_alloc_mb", "MB", "lower"},
	{"pag.parallel_ms", "ms", "lower"},
	{"pag.parallel_alloc_mb", "MB", "lower"},
	{"pag.vertices", "count", "lower"},
	{"pag.edges", "count", "lower"},
	{"pag.size_ms", "ms", "lower"},
	{"pag.size_alloc_mb", "MB", "lower"},
	{"graph.freeze_ms", "ms", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.analyze_alloc_mb", "MB", "lower"},
	{"core.stages", "count", "lower"},
	{"core.passes", "count", "lower"},
	{"sdf.predict_ms", "ms", "lower"},
	{"diff.ms", "ms", "lower"},
	{"policy.ms", "ms", "lower"},
	{"gc.cpu_frac", "ratio", "lower"},
	{"gc.cycles_per_op", "count", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_wait_ms.p99", "ms", "lower"},
	{"serve.exec_ms", "ms", "lower"},
	{"serve.rejected_ratio", "ratio", "lower"},
	{"serve.retries", "count", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"loadgen.late_ms.p99", "ms", "lower"},
	{"request.untraced_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}
