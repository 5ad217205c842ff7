package mpisim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"perflow/internal/workloads"
)

// faultMix crashes rank 1, drops a seeded share of rank 2's messages and
// slows rank 0, so one plan exercises every fault path of the replay.
var faultMix = &FaultPlan{
	Seed:    5,
	Crashes: []CrashFault{{Rank: 1, At: 400}},
	Drops:   []DropFault{{Rank: 2, Prob: 0.3}},
	Slows:   []SlowFault{{Rank: 0, Factor: 1.7}},
}

// instrumented perturbs cfg the way hybrid collection does.
func instrumented(cfg Config) Config {
	cfg.PerEventOverhead = 0.05
	cfg.SamplingPeriod = 5000
	cfg.SampleCost = 2
	return cfg
}

// TestMakespanMatchesRecordingReplay checks the timing-only replay against
// a recording run at the instrumented config: the same makespan bit for
// bit (or the same error), for every workload at 1, 8 and 64 ranks, with
// and without faults. The timing-only replay interns no contexts, and at 64
// ranks the test also checks that it records no events or sync edges.
func TestMakespanMatchesRecordingReplay(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		p, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8, 64} {
			for _, plan := range []*FaultPlan{nil, faultMix} {
				cfg := instrumented(Config{NRanks: n, Threads: 4, Faults: plan})
				label := fmt.Sprintf("%s@%d faults=%v", name, n, plan != nil)
				run, runErr := RunCtx(ctx, p, cfg)
				f, err := Flatten(ctx, p, cfg)
				if err != nil {
					if fmt.Sprint(err) != fmt.Sprint(runErr) {
						t.Fatalf("%s: Flatten error %v, RunCtx error %v", label, err, runErr)
					}
					continue
				}
				contexts := f.cct.Len()
				m, err := f.Makespan(ctx, cfg)
				if fmt.Sprint(err) != fmt.Sprint(runErr) {
					t.Fatalf("%s: Makespan error %v, RunCtx error %v", label, err, runErr)
				}
				if f.cct.Len() != contexts {
					t.Fatalf("%s: timing-only replay interned %d contexts", label, f.cct.Len()-contexts)
				}
				if runErr != nil {
					continue
				}
				if math.Float64bits(m) != math.Float64bits(run.TotalTime()) {
					t.Fatalf("%s: makespan %v, recording run %v", label, m, run.TotalTime())
				}
				if n < 64 {
					continue
				}
				w, err := f.newWorld(cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.replay(ctx); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, rs := range w.ranks {
					if len(rs.events) != 0 {
						t.Fatalf("%s: timing-only replay recorded %d events on rank %d", label, len(rs.events), rs.rank)
					}
				}
				if len(w.syncs) != 0 {
					t.Fatalf("%s: timing-only replay recorded %d syncs", label, len(w.syncs))
				}
			}
		}
	}
}

// TestSharedFlattenReplayMatchesRunCtx checks the collector's sequence — one
// Flatten, a timing-only clean replay, then a recording instrumented replay
// — against a fresh RunCtx at the instrumented config: the same events,
// sync edges, statuses and calling-context tree.
func TestSharedFlattenReplayMatchesRunCtx(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		p, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8} {
			for _, plan := range []*FaultPlan{nil, faultMix} {
				base := Config{NRanks: n, Threads: 4, Faults: plan}
				label := fmt.Sprintf("%s@%d faults=%v", name, n, plan != nil)
				want, wantErr := RunCtx(ctx, p, instrumented(base))
				f, err := Flatten(ctx, p, base)
				if err != nil {
					continue
				}
				if _, err := f.Makespan(ctx, base); err != nil {
					continue
				}
				got, err := f.Replay(ctx, instrumented(base))
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: replay error %v, RunCtx error %v", label, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replay from a shared flatten differs from a fresh RunCtx", label)
				}
			}
		}
	}
}

// TestReplayRejectsOtherSize checks that a Flat only replays at the size it
// was flattened at.
func TestReplayRejectsOtherSize(t *testing.T) {
	f, err := Flatten(context.Background(), ringProgram(2), Config{NRanks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replay(context.Background(), Config{NRanks: 8}); err == nil {
		t.Fatal("replay at 8 ranks of a 4-rank flatten succeeded")
	}
}
