package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around an
// exported function of the program under test. Spans of one operation (a
// request or a served job) share Op; Parent is the index of the enclosing
// span in the recorder, or -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
	// AllocMB is the heap allocation made between start and end, in MB
	// (10^6 bytes). It counts every goroutine, so it is only meaningful
	// while one operation runs at a time; concurrent spans leave it 0.
	AllocMB float64 `json:"alloc_mb,omitempty"`
	// Count carries a per-span count, such as simulated events or PAG
	// vertices.
	Count map[string]float64 `json:"count,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for use by
// several goroutines; nesting (begin/end pairs) is tracked per operation by
// the caller passing the parent index explicitly.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 {
	return float64(time.Since(r.epoch).Nanoseconds()) / 1e6
}

// heapAllocBytes reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timer is an open span; idx is its slot in the recorder, usable as the
// parent of spans opened before it ends.
type timer struct {
	r      *recorder
	idx    int
	alloc0 uint64
	allocs bool
}

// begin opens a span. With allocs set it also measures heap allocation;
// pass false for spans that run concurrently with other work.
func (r *recorder) begin(op, parent int, name string, allocs bool) *timer {
	t := &timer{r: r, allocs: allocs}
	if allocs {
		t.alloc0 = heapAllocBytes()
	}
	start := r.now()
	r.mu.Lock()
	t.idx = len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start})
	r.mu.Unlock()
	return t
}

// end closes the span, attaching count when it is non-nil.
func (t *timer) end(count map[string]float64) {
	end := t.r.now()
	var alloc float64
	if t.allocs {
		alloc = float64(heapAllocBytes()-t.alloc0) / 1e6
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	s := &t.r.spans[t.idx]
	s.End, s.AllocMB, s.Count = end, alloc, count
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := 0.0, 0.0, 0.0
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.ms() - covered
	}
	return out
}

// perOp sums value over the spans named one of names, per operation, and
// returns one sum per operation that has at least one such span with a
// value, in operation order. value reports false to skip a span.
func perOp(spans []span, value func(i int, s span) (float64, bool), names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sums := map[int]float64{}
	for i, s := range spans {
		if !want[s.Name] {
			continue
		}
		if v, ok := value(i, s); ok {
			sums[s.Op] += v
		}
	}
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for k, op := range ops {
		out[k] = sums[op]
	}
	return out
}

// Span value extractors for perOp.
func duration(_ int, s span) (float64, bool)  { return s.ms(), true }
func allocated(_ int, s span) (float64, bool) { return s.AllocMB, true }
func counted(key string) func(int, span) (float64, bool) {
	return func(_ int, s span) (float64, bool) {
		v, ok := s.Count[key]
		return v, ok
	}
}
