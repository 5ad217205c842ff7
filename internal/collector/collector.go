// Package collector implements the paper's hybrid static–dynamic analysis
// (§3.2): the static phase extracts the PAG structure from the program
// ("binary"), marking what can only be resolved at runtime; the dynamic
// phase runs the program under lightweight instrumentation — a
// calling-context sampler plus communication/lock hooks — and embeds the
// collected data into the PAG. It also measures the costs reported in
// Table 1: static analysis time, dynamic runtime overhead, and PAG storage
// size, and supports a pure-dynamic mode and a full-tracing mode for the
// ablation and baseline comparisons.
package collector

import (
	"context"
	"time"

	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/mpisim"
	"perflow/internal/pag"
	"perflow/internal/trace"
)

// Mode selects the collection strategy.
type Mode int

// Collection modes.
const (
	// ModeHybrid is PerFlow's strategy: structure comes from static
	// analysis, so the runtime hooks only record samples and communication
	// records (cheap).
	ModeHybrid Mode = iota
	// ModePureDynamic discovers structure at runtime too: every event pays
	// for call-path unwinding and structure construction (the ablation of
	// §3.2's claim that static analysis cuts runtime overhead).
	ModePureDynamic
	// ModeTracing records every event with full detail, Scalasca-style
	// (the §5.3 comparison).
	ModeTracing
)

// Per-event instrumentation costs (virtual µs) per mode.
const (
	hybridEventOverhead  = 0.05
	dynamicEventOverhead = 0.60 // unwinding + structure discovery per event
	tracingEventOverhead = 2.50 // buffer format + timestamps + flush share

	// Sampling interrupt model: 200 Hz as in the paper's HPCToolkit
	// comparison setup, with a 2µs handler.
	samplingPeriodUS = 5000
	sampleCostUS     = 2
)

// Options parameterizes collection.
type Options struct {
	Ranks   int
	Threads int
	Mode    Mode

	// Network model overrides (zero = mpisim defaults).
	Latency        float64
	Bandwidth      float64
	EagerThreshold float64

	PMU pag.PMUModel

	// SkipParallelView suppresses parallel-view construction when only the
	// top-down view is needed (differential analysis of two scales).
	SkipParallelView bool

	// Parallelism bounds the worker pool used for sharded PAG construction
	// and data embedding; <= 0 uses all available cores. The built PAGs are
	// identical at every setting.
	Parallelism int

	// Faults injects deterministic failures into both simulator replays; see
	// mpisim.FaultPlan. A non-nil plan implies AllowPartial.
	Faults *mpisim.FaultPlan

	// AllowPartial builds both PAG views from whatever ranks survived a
	// degraded run: incomplete-rank data is tagged with the data_quality
	// attribute, Result.Coverage summarizes what was lost, and a DQ001
	// warning rides the AttachDiagnostics path into reports. Without it a
	// hanging program still fails with mpisim's DeadlockError.
	AllowPartial bool
}

// Result bundles everything the analysis layers consume.
type Result struct {
	TopDown  *pag.PAG
	Parallel *pag.PAG
	Run      *trace.Run

	// StaticTime is the measured wall-clock cost of static PAG extraction
	// (Table 1 "Static").
	StaticTime time.Duration
	// CleanTime and InstrumentedTime are the virtual makespans without and
	// with instrumentation; DynamicOverheadPct is their relative difference
	// (Table 1 "Dynamic"). Both replays share one flattening of the
	// program; the clean one is timing-only, so Run is the instrumented
	// execution and no clean trace exists.
	CleanTime          float64
	InstrumentedTime   float64
	DynamicOverheadPct float64
	// PAGBytes is the serialized storage cost of the built views
	// (Table 1 "Space").
	PAGBytes int64
	// TraceBytes is the full-event-trace storage cost (ModeTracing only;
	// the §5.3 Scalasca storage comparison).
	TraceBytes int64

	// Coverage summarizes per-rank data quality for degraded runs (fault
	// injection or salvaged traces); nil for a clean run.
	Coverage *Coverage
}

// Collect runs the full pipeline on program p.
func Collect(p *ir.Program, opts Options) (*Result, error) {
	return CollectCtx(context.Background(), p, opts)
}

// CollectCtx is Collect under a caller-supplied context. Cancellation and
// deadlines propagate into both simulator replays and are checked between the
// pipeline phases, so a collection in flight aborts promptly with ctx.Err().
func CollectCtx(ctx context.Context, p *ir.Program, opts Options) (*Result, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}

	res := &Result{}

	// ---- static phase ----
	t0 := time.Now()
	td := pag.BuildTopDown(p)
	res.StaticTime = time.Since(t0)
	res.TopDown = td

	base := mpisim.Config{
		NRanks: opts.Ranks, Threads: opts.Threads,
		Latency: opts.Latency, Bandwidth: opts.Bandwidth,
		EagerThreshold: opts.EagerThreshold,
		Faults:         opts.Faults,
		AllowPartial:   opts.AllowPartial || opts.Faults != nil,
	}

	// ---- dynamic phase: flatten once, replay clean and instrumented ----
	flat, err := mpisim.Flatten(ctx, p, base)
	if err != nil {
		return nil, err
	}
	// The clean replay only yields the reference makespan, so it runs
	// timing-only and records nothing.
	if res.CleanTime, err = flat.Makespan(ctx, base); err != nil {
		return nil, err
	}

	// ---- instrumented run ----
	instr := base
	switch opts.Mode {
	case ModeHybrid:
		instr.PerEventOverhead = hybridEventOverhead
		instr.SamplingPeriod = samplingPeriodUS
		instr.SampleCost = sampleCostUS
	case ModePureDynamic:
		instr.PerEventOverhead = dynamicEventOverhead
		instr.SamplingPeriod = samplingPeriodUS
		instr.SampleCost = sampleCostUS
	case ModeTracing:
		instr.PerEventOverhead = tracingEventOverhead
	}
	run, err := flat.Replay(ctx, instr)
	if err != nil {
		return nil, err
	}
	res.Run = run
	res.InstrumentedTime = run.TotalTime()
	if res.CleanTime > 0 {
		res.DynamicOverheadPct = 100 * (res.InstrumentedTime - res.CleanTime) / res.CleanTime
	}

	// ---- embedding ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	buildOpts := pag.BuildOptions{Parallelism: opts.Parallelism}
	td.EmbedRunParallel(run, opts.PMU, buildOpts)
	td.MarkDynamicCallees(run)
	res.Coverage = CoverageOf(run)
	if res.Coverage != nil {
		td.TagDataQuality(run)
		if d := coverageDiagnostic(p, res.Coverage); d != nil {
			td.AttachDiagnostics([]lint.Diagnostic{*d})
		}
	}
	res.PAGBytes = td.SerializedSize()

	if !opts.SkipParallelView {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Parallel = pag.BuildParallelOpts(run, buildOpts)
		if res.Coverage != nil {
			res.Parallel.TagDataQuality(run)
		}
		res.PAGBytes += res.Parallel.SerializedSize()
	}
	if opts.Mode == ModeTracing {
		res.TraceBytes = run.EncodedSize()
	}
	return res, nil
}

// coverageDiagnostic synthesizes the DQ001 warning that carries a degraded
// run's coverage summary through the AttachDiagnostics path, anchored at
// the entry function so it surfaces in any report that includes it.
func coverageDiagnostic(p *ir.Program, c *Coverage) *lint.Diagnostic {
	entry := p.Function(p.Entry)
	if entry == nil {
		return nil
	}
	return &lint.Diagnostic{
		Code:     "DQ001",
		Analyzer: "data-quality",
		Severity: lint.SevWarning,
		Fn:       p.Entry,
		Message:  "analysis from partial data: " + c.Summary(),
		Node:     entry.ID(),
	}
}

// CollectAtScales runs the pipeline at two process counts and returns both
// results — the input shape of differential and scalability analysis
// (paper Listing 7: a 4-process and a 64-process run).
func CollectAtScales(p *ir.Program, small, large Options) (*Result, *Result, error) {
	return CollectAtScalesCtx(context.Background(), p, small, large)
}

// CollectAtScalesCtx is CollectAtScales under a caller-supplied context:
// cancellation between and during the two collections aborts promptly
// with ctx.Err(), matching CollectCtx.
func CollectAtScalesCtx(ctx context.Context, p *ir.Program, small, large Options) (*Result, *Result, error) {
	rs, err := CollectCtx(ctx, p, small)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rl, err := CollectCtx(ctx, p, large)
	if err != nil {
		return nil, nil, err
	}
	return rs, rl, nil
}
