package core

// JSON marshalling of execution traces, the machine-readable counterpart of
// ExecutionTrace.Write: the serving layer returns these alongside report
// text so clients get per-pass observability without parsing tables.

// JSONPassSpan is one pass's entry in a JSON-rendered execution trace.
// Durations are microseconds, matching the PAG's virtual-time unit.
type JSONPassSpan struct {
	Pass     string `json:"pass"`
	Node     int    `json:"node"`
	Worker   int    `json:"worker"`
	StartUS  int64  `json:"start_us"`
	WallUS   int64  `json:"wall_us"`
	InSizes  []int  `json:"in,omitempty"`
	OutSizes []int  `json:"out,omitempty"`
	Err      string `json:"err,omitempty"`
}

// JSONPassFailure is one degraded-mode pass failure in a JSON trace.
type JSONPassFailure struct {
	Node   int    `json:"node"`
	Pass   string `json:"pass"`
	Reason string `json:"reason"`
	Err    string `json:"err"`
}

// JSONTrace is the JSON envelope of one ExecutionTrace.
type JSONTrace struct {
	Workers        int               `json:"workers"`
	WallUS         int64             `json:"wall_us"`
	BusyUS         int64             `json:"busy_us"`
	MaxParallelism int               `json:"max_parallelism"`
	Spans          []JSONPassSpan    `json:"spans"`
	Failures       []JSONPassFailure `json:"failures,omitempty"`
}

// BuildJSONTrace converts an execution trace into its JSON envelope; a nil
// trace yields nil.
func BuildJSONTrace(t *ExecutionTrace) *JSONTrace {
	if t == nil {
		return nil
	}
	jt := &JSONTrace{
		Workers:        t.Workers,
		WallUS:         t.Wall.Microseconds(),
		BusyUS:         t.Busy().Microseconds(),
		MaxParallelism: t.MaxParallelism(),
		Spans:          make([]JSONPassSpan, len(t.Spans)),
	}
	for i, s := range t.Spans {
		jt.Spans[i] = JSONPassSpan{
			Pass:     s.Pass,
			Node:     s.Node,
			Worker:   s.Worker,
			StartUS:  s.Start.Microseconds(),
			WallUS:   s.Wall().Microseconds(),
			InSizes:  s.InSizes,
			OutSizes: s.OutSizes,
			Err:      s.Err,
		}
	}
	for _, f := range t.Failures {
		jt.Failures = append(jt.Failures, JSONPassFailure(f))
	}
	return jt
}
