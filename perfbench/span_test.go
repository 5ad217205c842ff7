package main

import (
	"math"
	"testing"
	"time"
)

// A synthetic tree: request [0,100] with children ir.load [5,10],
// collect [10,70] and analyze [70,95]; collect holds mpisim [12,40] and
// two overlapping spans [35,50] and [45,60], plus one that leaks past its
// parent [65,80].
func syntheticSpans() []span {
	return []span{
		{Name: "request", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "ir.load", Op: 0, Parent: 0, Start: 5, End: 10},
		{Name: "collect", Op: 0, Parent: 0, Start: 10, End: 70},
		{Name: "mpisim", Op: 0, Parent: 2, Start: 12, End: 40},
		{Name: "pag.size", Op: 0, Parent: 2, Start: 35, End: 50},
		{Name: "pag.size", Op: 0, Parent: 2, Start: 45, End: 60},
		{Name: "graph.freeze", Op: 0, Parent: 2, Start: 65, End: 80},
		{Name: "core.analyze", Op: 0, Parent: 0, Start: 70, End: 95},
		{Name: "request", Op: 1, Parent: -1, Start: 100, End: 130},
		{Name: "mpisim", Op: 1, Parent: 8, Start: 100, End: 130},
	}
}

func TestSelfTimes(t *testing.T) {
	want := []float64{
		100 - (5 + 60 + 25), // request: children cover [5,10], [10,70], [70,95]
		5,
		60 - (28 + 20 + 5), // collect: [12,40]∪[35,60] = [12,60], plus [65,70] clipped
		28, 15, 15, 15, 25,
		0, // a child covering its whole parent leaves no self time
		30,
	}
	got := selfTimes(syntheticSpans())
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d (%s): self time %v, want %v", i, syntheticSpans()[i].Name, got[i], want[i])
		}
	}
}

func TestPerOpSumsAndSkipsOps(t *testing.T) {
	spans := syntheticSpans()
	if got := perOp(spans, duration, "mpisim"); len(got) != 2 || got[0] != 28 || got[1] != 30 {
		t.Errorf("mpisim per op = %v, want [28 30]", got)
	}
	if got := perOp(spans, duration, "pag.size", "graph.freeze"); len(got) != 1 || got[0] != 45 {
		t.Errorf("size+freeze per op = %v, want [45] (op 1 has neither)", got)
	}
	if got := perOp(spans, counted("events"), "mpisim"); len(got) != 0 {
		t.Errorf("spans without the count should be skipped, got %v", got)
	}
	self := selfTimes(spans)
	untraced := perOp(spans, func(i int, _ span) (float64, bool) { return self[i], true }, "request", "collect")
	if len(untraced) != 2 || untraced[0] != 10+7 || untraced[1] != 0 {
		t.Errorf("untraced per op = %v, want [17 0]", untraced)
	}
}

var sink []byte

func TestRecorderNestsAndMeasures(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(3, -1, "request", true)
	child := rec.begin(3, root.idx, "lint", true)
	sink = make([]byte, 1<<20)
	time.Sleep(2 * time.Millisecond)
	child.end(map[string]float64{"n": float64(len(sink))})
	root.end(nil)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[0].Parent != -1 || spans[1].Op != 3 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[1].ms() < 2 || spans[0].ms() < spans[1].ms() {
		t.Errorf("durations: root %v, child %v", spans[0].ms(), spans[1].ms())
	}
	if spans[1].AllocMB < 1 {
		t.Errorf("child allocated 1 MiB but recorded %v MB", spans[1].AllocMB)
	}
	if spans[1].Count["n"] != 1<<20 {
		t.Errorf("count not kept: %v", spans[1].Count)
	}
}
