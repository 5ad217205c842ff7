package trace

import (
	"testing"
	"testing/quick"

	"perflow/internal/ir"
)

func TestCCTInternDedup(t *testing.T) {
	cct := NewCCT()
	a := cct.Intern(NoCtx, 1)
	b := cct.Intern(a, 2)
	b2 := cct.Intern(a, 2)
	if b != b2 {
		t.Errorf("re-interning same frame gave %d and %d", b, b2)
	}
	c := cct.Intern(a, 3)
	if c == b {
		t.Errorf("distinct frames interned to same ctx")
	}
	if cct.Len() != 3 {
		t.Errorf("Len = %d, want 3", cct.Len())
	}
}

func TestCCTPath(t *testing.T) {
	cct := NewCCT()
	main := cct.Intern(NoCtx, 10)
	loop := cct.Intern(main, 11)
	call := cct.Intern(loop, 12)
	path := cct.Path(call)
	want := []ir.NodeID{10, 11, 12}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if cct.Parent(main) != NoCtx {
		t.Error("top frame should have NoCtx parent")
	}
	if cct.Node(NoCtx) != ir.NoNode {
		t.Error("Node(NoCtx) should be NoNode")
	}
	if p := cct.Path(NoCtx); len(p) != 0 {
		t.Errorf("Path(NoCtx) = %v, want empty", p)
	}
}

// Property: Path length equals the number of Intern steps from root, and
// Path(Intern(p, n)) = append(Path(p), n).
func TestCCTPathProperty(t *testing.T) {
	f := func(nodesRaw []uint8) bool {
		if len(nodesRaw) > 40 {
			nodesRaw = nodesRaw[:40]
		}
		cct := NewCCT()
		ctx := NoCtx
		var want []ir.NodeID
		for _, n := range nodesRaw {
			ctx = cct.Intern(ctx, ir.NodeID(n))
			want = append(want, ir.NodeID(n))
		}
		got := cct.Path(ctx)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sampleRun() *Run {
	cct := NewCCT()
	ctx := cct.Intern(NoCtx, 0)
	return &Run{
		NRanks:         2,
		ThreadsPerRank: 1,
		CCT:            cct,
		Events: [][]Event{
			{
				{Rank: 0, Thread: -1, Kind: KindCompute, Node: 1, Ctx: ctx, Start: 0, End: 10},
				{Rank: 0, Thread: -1, Kind: KindComm, Op: ir.CommSend, Node: 2, Ctx: ctx, Start: 10, End: 14, Wait: 2, Peer: 1, Bytes: 1024},
			},
			{
				{Rank: 1, Thread: -1, Kind: KindCompute, Node: 1, Ctx: ctx, Start: 0, End: 12},
				{Rank: 1, Thread: -1, Kind: KindComm, Op: ir.CommRecv, Node: 3, Ctx: ctx, Start: 12, End: 15, Wait: 1, Peer: 0, Bytes: 1024},
			},
		},
		Elapsed: []float64{14, 15},
	}
}

func TestRunAggregates(t *testing.T) {
	r := sampleRun()
	if r.TotalTime() != 15 {
		t.Errorf("TotalTime = %v", r.TotalTime())
	}
	if r.NumEvents() != 4 {
		t.Errorf("NumEvents = %d", r.NumEvents())
	}
	s := r.ComputeStats()
	if s.ComputeTime != 22 || s.CommTime != 7 || s.WaitTime != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.CommFraction <= 0 || s.CommFraction >= 1 {
		t.Errorf("comm fraction = %v", s.CommFraction)
	}
	n := 0
	r.ForEach(func(*Event) { n++ })
	if n != 4 {
		t.Errorf("ForEach visited %d", n)
	}
}

func TestEventDur(t *testing.T) {
	e := Event{Start: 3, End: 7.5}
	if e.Dur() != 4.5 {
		t.Errorf("Dur = %v", e.Dur())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCompute: "compute", KindComm: "comm", KindLock: "lock",
		KindAlloc: "alloc", KindRegion: "region",
	} {
		if k.String() != want {
			t.Errorf("%v String = %q", int(k), k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}
