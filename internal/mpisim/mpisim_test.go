package mpisim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"perflow/internal/ir"
	"perflow/internal/trace"
	"perflow/internal/workloads"
)

func mustRun(t *testing.T, p *ir.Program, cfg Config) *trace.Run {
	t.Helper()
	run, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return run
}

func TestComputeOnly(t *testing.T) {
	p := ir.NewBuilder("c").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(100))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	for r, e := range run.Elapsed {
		if math.Abs(e-100) > 1e-9 {
			t.Errorf("rank %d elapsed = %v, want 100", r, e)
		}
	}
	if run.NumEvents() != 4 {
		t.Errorf("events = %d", run.NumEvents())
	}
}

func TestLoopClosedForm(t *testing.T) {
	p := ir.NewBuilder("l").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Loop("loop", 2, ir.Const(10), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(5))
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 1})
	if math.Abs(run.TotalTime()-50) > 1e-9 {
		t.Errorf("TotalTime = %v, want 50", run.TotalTime())
	}
	// Closed form: one event, not ten.
	if run.NumEvents() != 1 {
		t.Errorf("events = %d, want 1", run.NumEvents())
	}
}

func TestLoopCommPerIterReplays(t *testing.T) {
	p := ir.NewBuilder("l").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("loop", 2, ir.Const(3), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(5))
				lb.Barrier(4)
			})
			l.CommPerIter = true
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	// 3 iterations x (compute + barrier) per rank.
	if got := len(run.Events[0]); got != 6 {
		t.Errorf("rank 0 events = %d, want 6", got)
	}
}

func TestBlockingEagerSendRecv(t *testing.T) {
	// Rank 0 sends a small (eager) message to rank 1 after 10µs of work;
	// rank 1 receives after 2µs of work and must wait for the payload.
	p := ir.NewBuilder("sr").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Compute("work", 3, ir.Const(10))
				s.Send(4, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(100), 7)
			})
			b.Branch("receiver", 6, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("work", 7, ir.Const(2))
				r.Recv(8, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(100), 7)
			})
		}).MustBuild()
	cfg := Config{NRanks: 2, Latency: 2, Bandwidth: 100}
	run := mustRun(t, p, cfg)
	// Sender: 10 + injection (100/100=1) = 11. Not blocked by receiver.
	if math.Abs(run.Elapsed[0]-11) > 1e-9 {
		t.Errorf("sender elapsed = %v, want 11", run.Elapsed[0])
	}
	// Receiver: payload arrives at 10 + (2 + 100/100) = 13; recv posted at 2.
	if math.Abs(run.Elapsed[1]-13) > 1e-9 {
		t.Errorf("receiver elapsed = %v, want 13", run.Elapsed[1])
	}
	// The recv event should carry the waiting time (13 - 2 - 3 = 8).
	var recvEv *trace.Event
	for i := range run.Events[1] {
		if run.Events[1][i].Op == ir.CommRecv {
			recvEv = &run.Events[1][i]
		}
	}
	if recvEv == nil {
		t.Fatal("no recv event")
	}
	if math.Abs(recvEv.Wait-8) > 1e-9 {
		t.Errorf("recv wait = %v, want 8", recvEv.Wait)
	}
}

func TestRendezvousSendBlocksUntilRecv(t *testing.T) {
	// Large message: sender ready at 1µs, receiver posts at 50µs. The
	// blocking send cannot finish before the receiver shows up.
	p := ir.NewBuilder("rdv").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Compute("work", 3, ir.Const(1))
				s.Send(4, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(1_000_000), 0)
			})
			b.Branch("receiver", 6, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("work", 7, ir.Const(50))
				r.Recv(8, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(1_000_000), 0)
			})
		}).MustBuild()
	cfg := Config{NRanks: 2, Latency: 2, Bandwidth: 10000, EagerThreshold: 4096}
	run := mustRun(t, p, cfg)
	transfer := 2 + 1_000_000.0/10000
	want := 50 + transfer
	if math.Abs(run.Elapsed[0]-want) > 1e-9 {
		t.Errorf("sender elapsed = %v, want %v (blocked on rendezvous)", run.Elapsed[0], want)
	}
	if math.Abs(run.Elapsed[1]-want) > 1e-9 {
		t.Errorf("receiver elapsed = %v, want %v", run.Elapsed[1], want)
	}
}

func TestNonblockingOverlap(t *testing.T) {
	// Halo exchange with isend/irecv + waitall: communication overlaps the
	// following compute, so elapsed is close to compute + one transfer.
	p := ir.NewBuilder("nb").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Isend(2, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(3, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Compute("overlap", 4, ir.Const(100))
			b.Waitall(5)
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 1000}
	run := mustRun(t, p, cfg)
	// Transfer = 2 + 1 = 3µs, fully hidden behind 100µs compute.
	for r, e := range run.Elapsed {
		if math.Abs(e-100) > 1.0 {
			t.Errorf("rank %d elapsed = %v, want ~100 (overlapped)", r, e)
		}
	}
}

func TestWaitallWaitsForLateSender(t *testing.T) {
	// Rank 0 computes 200µs before its isend; others must wait in Waitall
	// for the late payload: the paper's imbalance-propagation mechanism.
	p := ir.NewBuilder("late").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("imbalanced", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 20}})
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Waitall(5)
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 1000}
	run := mustRun(t, p, cfg)
	// Rank 1 receives from rank 0 (left), so its waitall ends after 200+3.
	if run.Elapsed[1] < 200 {
		t.Errorf("rank 1 elapsed = %v, should be delayed past 200 by rank 0", run.Elapsed[1])
	}
	// Rank 3's left neighbor is rank 2 (fast), so it finishes much earlier.
	if run.Elapsed[3] > 100 {
		t.Errorf("rank 3 elapsed = %v, should not be delayed", run.Elapsed[3])
	}
	// Waitall wait time on rank 1 should be large.
	var wa *trace.Event
	for i := range run.Events[1] {
		if run.Events[1][i].Op == ir.CommWaitall {
			wa = &run.Events[1][i]
		}
	}
	if wa == nil || wa.Wait < 150 {
		t.Errorf("rank 1 waitall wait = %+v, want substantial", wa)
	}
}

func TestCollectiveSynchronizes(t *testing.T) {
	p := ir.NewBuilder("coll").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("imbalanced", 2, ir.Expr{Base: 10, Factor: map[int]float64{2: 10}})
			b.Allreduce(3, ir.Const(8))
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 10000}
	run := mustRun(t, p, cfg)
	// Everyone finishes together, after the slowest rank (100µs) plus cost.
	for r := 1; r < 4; r++ {
		if math.Abs(run.Elapsed[r]-run.Elapsed[0]) > 1e-9 {
			t.Errorf("ranks finish apart: %v vs %v", run.Elapsed[r], run.Elapsed[0])
		}
	}
	if run.Elapsed[0] < 100 {
		t.Errorf("collective finished before slowest arrival: %v", run.Elapsed[0])
	}
	// Fast ranks carry wait time on the allreduce event.
	var ar *trace.Event
	for i := range run.Events[0] {
		if run.Events[0][i].Op == ir.CommAllreduce {
			ar = &run.Events[0][i]
		}
	}
	if ar == nil || ar.Wait < 80 {
		t.Errorf("allreduce wait on fast rank = %+v, want ~90", ar)
	}
}

func TestBarrierAndMultipleCollectives(t *testing.T) {
	p := ir.NewBuilder("two").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Barrier(2)
			b.Compute("w", 3, ir.Const(5))
			b.Allreduce(4, ir.Const(64))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 8})
	if run.TotalTime() <= 5 {
		t.Errorf("total = %v, want > 5", run.TotalTime())
	}
	for r := range run.Events {
		colls := 0
		for _, e := range run.Events[r] {
			if e.Op.IsCollective() && e.Kind == trace.KindComm {
				colls++
			}
		}
		if colls != 2 {
			t.Errorf("rank %d collective events = %d, want 2", r, colls)
		}
	}
}

func TestDeadlockDetectedUnmatchedRecv(t *testing.T) {
	p := ir.NewBuilder("dead").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("r0", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Recv(3, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(10), 5)
			})
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 2})
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0].Rank != 0 {
		t.Errorf("blocked = %+v", de.Blocked)
	}
	if !strings.Contains(de.Error(), "MPI_Recv") || !strings.Contains(de.Error(), "m.c:3") {
		t.Errorf("error lacks context: %v", de.Error())
	}
}

func TestDeadlockMismatchedCollectives(t *testing.T) {
	p := ir.NewBuilder("mismatch").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("even", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Barrier(3)
			})
			b.Branch("odd", 4, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(s *ir.Body) {
				s.Allreduce(5, ir.Const(8))
			})
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 2})
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("expected DeadlockError for mismatched collectives, got %v", err)
	}
}

func TestSendRecvChainPropagation(t *testing.T) {
	// A pipeline: each rank receives from the left, computes, sends right.
	// Rank 0's slowness propagates down the whole chain.
	p := ir.NewBuilder("chain").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 1, Add: map[int]float64{0: 100}})
			b.Branch("notfirst", 3, ir.Expr{Base: 1, Factor: map[int]float64{0: 0}}, func(s *ir.Body) {
				s.Recv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(100000), 1)
			})
			b.Branch("notlast", 5, ir.Expr{Base: 1, Factor: map[int]float64{3: 0}}, func(s *ir.Body) {
				s.Send(6, ir.Peer{Kind: ir.PeerRight}, ir.Const(100000), 1)
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4, EagerThreshold: 100})
	if run.Elapsed[3] < 100 {
		t.Errorf("pipeline end elapsed = %v, should inherit rank 0 delay", run.Elapsed[3])
	}
	if run.Elapsed[0] > run.Elapsed[3] {
		t.Errorf("elapsed should grow down the pipeline: %v", run.Elapsed)
	}
}

func TestPerEventOverheadSlowsRun(t *testing.T) {
	p := ir.NewBuilder("oh").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("l", 2, ir.Const(20), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(1))
				lb.Barrier(4)
			})
			l.CommPerIter = true
		}).MustBuild()
	clean := mustRun(t, p, Config{NRanks: 2})
	dirty := mustRun(t, p, Config{NRanks: 2, PerEventOverhead: 0.5})
	if dirty.TotalTime() <= clean.TotalTime() {
		t.Errorf("instrumented run (%v) should be slower than clean (%v)", dirty.TotalTime(), clean.TotalTime())
	}
}

func TestSamplingSlowdown(t *testing.T) {
	p := ir.NewBuilder("s").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(1000))
		}).MustBuild()
	clean := mustRun(t, p, Config{NRanks: 1})
	sampled := mustRun(t, p, Config{NRanks: 1, SamplingPeriod: 100, SampleCost: 1})
	want := 1000 * 1.01
	if math.Abs(sampled.TotalTime()-want) > 1e-6 {
		t.Errorf("sampled total = %v, want %v", sampled.TotalTime(), want)
	}
	if clean.TotalTime() != 1000 {
		t.Errorf("clean total = %v", clean.TotalTime())
	}
}

func TestParallelRegionOnRank(t *testing.T) {
	p := ir.NewBuilder("pr").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Parallel("omp", 2, 0, true, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Compute("w", 3, ir.Const(80))
			})
			b.Barrier(5)
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2, Threads: 4})
	// Workshared 80µs over 4 threads = 20µs + barrier cost.
	if run.TotalTime() < 20 || run.TotalTime() > 30 {
		t.Errorf("total = %v, want ~20-25", run.TotalTime())
	}
	// Region + per-thread events present.
	var regions, computes int
	run.ForEach(func(e *trace.Event) {
		switch e.Kind {
		case trace.KindRegion:
			regions++
		case trace.KindCompute:
			computes++
		}
	})
	if regions != 2 {
		t.Errorf("region events = %d, want 2", regions)
	}
	if computes != 8 {
		t.Errorf("thread compute events = %d, want 8", computes)
	}
}

func TestEventsOrderedAndCausal(t *testing.T) {
	p := ir.NewBuilder("ord").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("a", 2, ir.Const(3))
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(10), 0, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(10), 0, "r")
			b.Compute("b", 5, ir.Const(3))
			b.Waitall(6)
			b.Allreduce(7, ir.Const(8))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 3})
	run.ForEach(func(e *trace.Event) {
		if e.End < e.Start {
			t.Errorf("event ends before start: %+v", e)
		}
		if e.Wait < 0 {
			t.Errorf("negative wait: %+v", e)
		}
	})
	// Per-rank event start times must be non-decreasing.
	for r := range run.Events {
		for i := 1; i < len(run.Events[r]); i++ {
			if run.Events[r][i].Start+1e-9 < run.Events[r][i-1].Start {
				t.Errorf("rank %d events out of order at %d", r, i)
			}
		}
	}
}

func TestWaitForNamedRequest(t *testing.T) {
	p := ir.NewBuilder("wait").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Isend(2, ir.Peer{Kind: ir.PeerRight}, ir.Const(64), 0, "a")
			b.Irecv(3, ir.Peer{Kind: ir.PeerLeft}, ir.Const(64), 0, "b")
			b.Wait(4, "b")
			b.Wait(5, "a")
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	for r := range run.Events {
		waits := 0
		for _, e := range run.Events[r] {
			if e.Op == ir.CommWait && e.Kind == trace.KindComm {
				waits++
			}
		}
		if waits != 2 {
			t.Errorf("rank %d wait events = %d, want 2", r, waits)
		}
	}
}

func TestRunStatsCommFraction(t *testing.T) {
	p := ir.NewBuilder("frac").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(50))
			b.Allreduce(3, ir.Const(1_000_000))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	s := run.ComputeStats()
	if s.CommFraction <= 0 {
		t.Errorf("comm fraction = %v", s.CommFraction)
	}
}

// Property: per-rank clocks never decrease and total time is at least the
// max pure-compute time of any rank.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		imb := float64(seedRaw%5) + 1
		p := ir.NewBuilder("prop").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: imb}})
				b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(500), 0, "s")
				b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(500), 0, "r")
				b.Waitall(5)
				b.Allreduce(6, ir.Const(8))
			}).MustBuild()
		run, err := Run(p, Config{NRanks: 4})
		if err != nil {
			return false
		}
		for r := range run.Events {
			prev := 0.0
			for _, e := range run.Events[r] {
				if e.Start+1e-9 < prev {
					return false
				}
				if e.End > prev {
					prev = e.End
				}
			}
		}
		return run.TotalTime() >= 10*imb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: making one rank slower never makes the collective-synchronized
// makespan shorter (monotonicity of the simulator).
func TestMakespanMonotoneProperty(t *testing.T) {
	build := func(extra float64) *ir.Program {
		return ir.NewBuilder("mono").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Expr{Base: 10, Add: map[int]float64{1: extra}})
				b.Barrier(3)
			}).MustBuild()
	}
	f := func(e1Raw, e2Raw uint8) bool {
		e1, e2 := float64(e1Raw), float64(e2Raw)
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		r1, err1 := Run(build(e1), Config{NRanks: 4})
		r2, err2 := Run(build(e2), Config{NRanks: 4})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.TotalTime() <= r2.TotalTime()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupHelper(t *testing.T) {
	p := ir.NewBuilder("sp").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 1000, Scaling: ir.ScaleInvP})
		}).MustBuild()
	small := mustRun(t, p, Config{NRanks: 2})
	large := mustRun(t, p, Config{NRanks: 8})
	sp := Speedup(small, large)
	if math.Abs(sp-4) > 1e-9 {
		t.Errorf("speedup = %v, want 4 (perfect strong scaling)", sp)
	}
}

func TestTopWaitEvents(t *testing.T) {
	p := ir.NewBuilder("tw").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 1, Add: map[int]float64{0: 99}})
			b.Barrier(3)
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	top := TopWaitEvents(run, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d events", len(top))
	}
	if top[0].Wait < top[1].Wait {
		t.Error("top wait events not sorted")
	}
}

func TestMaxOpsGuard(t *testing.T) {
	p := ir.NewBuilder("huge").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("l", 2, ir.Const(1000), func(lb *ir.Body) {
				lb.Barrier(3)
			})
			l.CommPerIter = true
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 1, MaxOpsPerRank: 100})
	if err == nil || !strings.Contains(err.Error(), "flattened operations") {
		t.Errorf("expected op-cap error, got %v", err)
	}
}

func TestSyncEdgesRecorded(t *testing.T) {
	// Imbalanced compute followed by halo exchange + waitall + allreduce:
	// expect message syncs into waitall and collective syncs into allreduce.
	p := ir.NewBuilder("sync").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 30}})
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Waitall(5)
			b.Allreduce(6, ir.Const(8))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	var msg, coll int
	for _, se := range run.Syncs {
		switch se.Kind {
		case trace.SyncMessage:
			msg++
			if se.SrcRank == se.DstRank {
				t.Errorf("message sync within one rank: %+v", se)
			}
		case trace.SyncCollective:
			coll++
			// The last arrival is rank 1: rank 0 is slow to compute, and its
			// late isend payload further delays rank 1's waitall — the
			// propagation chain of the paper's case study A.
			if se.SrcRank != 1 {
				t.Errorf("collective sync source = %d, want 1 (delay propagated via waitall)", se.SrcRank)
			}
		}
		if se.Wait < 0 {
			t.Errorf("negative sync wait: %+v", se)
		}
	}
	if msg != 4 {
		t.Errorf("message syncs = %d, want 4 (one per waitall-retired recv)", msg)
	}
	if coll != 3 {
		t.Errorf("collective syncs = %d, want 3 (all but the slowest)", coll)
	}
}

func TestRendezvousSyncEdge(t *testing.T) {
	p := ir.NewBuilder("rs").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Send(3, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(1_000_000), 0)
			})
			b.Branch("receiver", 5, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("late", 6, ir.Const(500))
				r.Recv(7, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(1_000_000), 0)
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	found := false
	for _, se := range run.Syncs {
		if se.Kind == trace.SyncRendezvous && se.SrcRank == 1 && se.DstRank == 0 && se.Wait > 400 {
			found = true
		}
	}
	if !found {
		t.Errorf("no rendezvous sync from late receiver; syncs = %+v", run.Syncs)
	}
}

func TestThreadSyncEdgesMerged(t *testing.T) {
	p := ir.NewBuilder("ts").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Parallel("omp", 2, 4, false, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Alloc(ir.AllocAlloc, 3, ir.Const(20), ir.Const(1))
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2, Threads: 4})
	locks := 0
	for _, se := range run.Syncs {
		if se.Kind == trace.SyncLock {
			locks++
			if se.Lock == "" || se.SrcThread < 0 || se.DstThread < 0 {
				t.Errorf("malformed lock sync: %+v", se)
			}
		}
	}
	if locks == 0 {
		t.Error("no lock contention syncs recorded")
	}
}

func TestSendrecvRingDeadlockFree(t *testing.T) {
	// MPI_Sendrecv around a ring with large (rendezvous) payloads — the
	// exact pattern that deadlocks with plain blocking sends (see
	// TestDeadlockCyclicRendezvousSends) — completes when fused.
	p := ir.NewBuilder("ring").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 5}})
			b.Sendrecv(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1_000_000), 0)
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	// Every rank completes, and ranks adjacent to the slow rank are held
	// back by the rendezvous with it.
	if run.Elapsed[1] < 50 {
		t.Errorf("rank 1 should wait for rank 0's payload: %v", run.Elapsed)
	}
	// All four sub-events carry the Sendrecv node identity.
	names := map[string]bool{}
	for _, e := range run.Events[0] {
		if e.Kind == trace.KindComm {
			n := run.Program.Node(e.Node)
			names[ir.InfoOf(n).Name] = true
		}
	}
	if !names["MPI_Sendrecv"] {
		t.Errorf("events not attributed to the Sendrecv node: %v", names)
	}
}

func TestGatherScatterCollectives(t *testing.T) {
	p := ir.NewBuilder("gs").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{2: 8}})
			b.Gather(3, ir.Const(4096))
			b.Scatter(4, ir.Const(4096))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	// Both collectives synchronize: all ranks end together.
	for r := 1; r < 4; r++ {
		if math.Abs(run.Elapsed[r]-run.Elapsed[0]) > 1e-9 {
			t.Errorf("ranks diverge after gather/scatter: %v", run.Elapsed)
		}
	}
	var gathers, scatters int
	run.ForEach(func(e *trace.Event) {
		switch e.Op {
		case ir.CommGather:
			gathers++
		case ir.CommScatter:
			scatters++
		}
	})
	if gathers != 4 || scatters != 4 {
		t.Errorf("collective events: gather=%d scatter=%d", gathers, scatters)
	}
}

// refFlattener is the unrolling flattener the cursor replaced: it pushes a
// comm-per-iter loop's body once per iteration and names each Sendrecv
// expansion as it goes. It is the oracle for the cursor's op stream.
type refFlattener struct {
	prog   *ir.Program
	rank   int
	nranks int
	cfg    Config
	cct    *trace.CCT
	ops    []op
	srSeq  int
}

func (f *refFlattener) push(o op) error {
	if len(f.ops) >= f.cfg.MaxOpsPerRank {
		return fmt.Errorf("mpisim: rank %d exceeds %d flattened operations (runaway loop?)", f.rank, f.cfg.MaxOpsPerRank)
	}
	f.ops = append(f.ops, o)
	return nil
}

func (f *refFlattener) nodes(ns []ir.Node, ctx trace.CtxID, mult float64) error {
	for _, n := range ns {
		if err := f.node(n, ctx, mult); err != nil {
			return err
		}
	}
	return nil
}

func (f *refFlattener) node(n ir.Node, ctx trace.CtxID, mult float64) error {
	switch x := n.(type) {
	case *ir.Compute:
		dur := x.Cost.Value(f.rank, f.nranks) * mult * f.cfg.slowdown() * f.cfg.slowFor(f.rank)
		if dur <= 0 {
			return nil
		}
		return f.push(op{kind: opCompute, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), dur: dur})
	case *ir.Loop:
		trips := x.Trips.Value(f.rank, f.nranks)
		if trips <= 0 {
			return nil
		}
		loopCtx := f.cct.Intern(ctx, x.ID())
		if !x.CommPerIter {
			return f.nodes(x.Body, loopCtx, mult*trips)
		}
		for i := 0; i < int(trips); i++ {
			if err := f.nodes(x.Body, loopCtx, mult); err != nil {
				return err
			}
		}
		return nil
	case *ir.Branch:
		if x.Taken.Value(f.rank, f.nranks) == 0 {
			return nil
		}
		return f.nodes(x.Body, f.cct.Intern(ctx, x.ID()), mult)
	case *ir.Call:
		callCtx := f.cct.Intern(ctx, x.ID())
		if x.External || x.Indirect {
			dur := x.Cost.Value(f.rank, f.nranks) * mult * f.cfg.slowdown() * f.cfg.slowFor(f.rank)
			if dur <= 0 {
				return nil
			}
			return f.push(op{kind: opCompute, node: x.ID(), ctx: callCtx, dur: dur})
		}
		callee := f.prog.Function(x.Callee)
		if callee == nil {
			return fmt.Errorf("mpisim: call to undefined function %q at %s", x.Callee, x.Debug())
		}
		return f.nodes(callee.Body, f.cct.Intern(callCtx, callee.ID()), mult)
	case *ir.Comm:
		if x.Op == ir.CommSendrecv {
			sendPeer := x.Peer.Resolve(f.rank, f.nranks)
			recvPeer := symmetricPartner(x.Peer, f.rank, f.nranks)
			if sendPeer < 0 || recvPeer < 0 {
				return fmt.Errorf("mpisim: rank %d: MPI_Sendrecv at %s has no resolvable peer", f.rank, x.Debug())
			}
			nodeCtx := f.cct.Intern(ctx, x.ID())
			bytes := x.Bytes.Value(f.rank, f.nranks)
			f.srSeq++
			sreq := fmt.Sprintf("\x00sr%d.s", f.srSeq)
			rreq := fmt.Sprintf("\x00sr%d.r", f.srSeq)
			for _, o := range []op{
				{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: ir.CommIsend, peer: sendPeer, bytes: bytes, tag: x.Tag, req: sreq},
				{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: ir.CommIrecv, peer: recvPeer, bytes: bytes, tag: x.Tag, req: rreq},
				{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: ir.CommWait, peer: recvPeer, req: rreq},
				{kind: opComm, node: x.ID(), ctx: nodeCtx, commOp: ir.CommWait, peer: sendPeer, req: sreq},
			} {
				if err := f.push(o); err != nil {
					return err
				}
			}
			return nil
		}
		o := op{
			kind: opComm, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()),
			commOp: x.Op, tag: x.Tag, req: x.Req,
			bytes: x.Bytes.Value(f.rank, f.nranks),
		}
		o.peer = -1
		switch x.Op {
		case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
			if x.Peer.Kind == ir.PeerAny {
				switch x.Op {
				case ir.CommRecv, ir.CommIrecv:
					o.peer = anySource
				default:
					return fmt.Errorf("mpisim: rank %d: %s at %s cannot use the wildcard peer", f.rank, x.Op, x.Debug())
				}
				break
			}
			o.peer = x.Peer.Resolve(f.rank, f.nranks)
			if o.peer < 0 {
				return fmt.Errorf("mpisim: rank %d: %s at %s has no resolvable peer", f.rank, x.Op, x.Debug())
			}
		}
		return f.push(o)
	case *ir.Parallel:
		return f.push(op{kind: opRegion, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), region: x})
	case *ir.Kernel:
		return f.push(op{kind: opKernel, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), kernel: x, stream: x.Strm})
	case *ir.DeviceSync:
		return f.push(op{kind: opDeviceSync, node: x.ID(), ctx: f.cct.Intern(ctx, x.ID()), stream: x.Strm})
	case *ir.Mutex, *ir.Alloc:
		var cnt, hold float64
		var id ir.NodeID
		switch y := n.(type) {
		case *ir.Mutex:
			cnt, hold, id = y.Count.Value(f.rank, f.nranks), y.Hold.Value(f.rank, f.nranks), y.ID()
		case *ir.Alloc:
			cnt, hold, id = y.Count.Value(f.rank, f.nranks), y.Hold.Value(f.rank, f.nranks), y.ID()
		}
		dur := cnt * hold * mult * f.cfg.slowFor(f.rank)
		if dur <= 0 {
			return nil
		}
		return f.push(op{kind: opCompute, node: id, ctx: f.cct.Intern(ctx, id), dur: dur})
	default:
		return fmt.Errorf("mpisim: unsupported node kind %q", n.Kind())
	}
}

// checkStreamMatchesReference flattens every rank of p both ways, each into
// its own CCT, and requires the cursor to yield the reference stream op by
// op (request names included), the op count to match it, the same errors,
// and identically interned calling contexts.
func checkStreamMatchesReference(t *testing.T, name string, p *ir.Program, nranks int) {
	t.Helper()
	cfg := Config{NRanks: nranks}.withDefaults()
	refCCT, cct := trace.NewCCT(), trace.NewCCT()
	entry := p.Function(p.Entry)
	for r := 0; r < nranks; r++ {
		ref := &refFlattener{prog: p, rank: r, nranks: nranks, cfg: cfg, cct: refCCT}
		refErr := ref.nodes(entry.Body, refCCT.Intern(trace.NoCtx, entry.ID()), 1)
		fl := &flattener{prog: p, rank: r, nranks: nranks, cfg: cfg, cct: cct}
		err := fl.nodes(entry.Body, cct.Intern(trace.NoCtx, entry.ID()), 1)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s@%d rank %d: error %v, reference %v", name, nranks, r, err, refErr)
		}
		if err != nil {
			return
		}
		if fl.count != len(ref.ops) {
			t.Fatalf("%s@%d rank %d: counted %d ops, reference unrolls %d", name, nranks, r, fl.count, len(ref.ops))
		}
		c := newCursor(fl.take(0))
		for i, want := range ref.ops {
			if c.done() {
				t.Fatalf("%s@%d rank %d: stream ends at op %d of %d", name, nranks, r, i, len(ref.ops))
			}
			got := *c.op()
			got.sr = srNone
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s@%d rank %d op %d:\n got %+v\nwant %+v", name, nranks, r, i, got, want)
			}
			c.advance()
		}
		if !c.done() {
			t.Fatalf("%s@%d rank %d: stream longer than the reference's %d ops", name, nranks, r, len(ref.ops))
		}
	}
	if cct.Len() != refCCT.Len() {
		t.Fatalf("%s@%d: %d contexts, reference %d", name, nranks, cct.Len(), refCCT.Len())
	}
	for c := trace.CtxID(0); int(c) < cct.Len(); c++ {
		if cct.Parent(c) != refCCT.Parent(c) || cct.Node(c) != refCCT.Node(c) {
			t.Fatalf("%s@%d: context %d interned differently", name, nranks, c)
		}
	}
}

func TestStreamMatchesReferenceTable1(t *testing.T) {
	for _, name := range []string{"bt", "cg", "ep", "ft", "mg", "sp", "lu", "is", "zeusmp", "lammps", "vite"} {
		p, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8, 64} {
			checkStreamMatchesReference(t, name, p, n)
		}
	}
}

func TestStreamMatchesReferenceParseCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "fuzz", "FuzzParse", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzParse corpus: %v", err)
	}
	checked := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a string corpus entry", path)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, err := ir.Parse(strings.NewReader(src))
		if err != nil || p.Finalize() != nil || p.Function(p.Entry) == nil {
			continue
		}
		for _, n := range []int{1, 8} {
			checkStreamMatchesReference(t, filepath.Base(path), p, n)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus program finalized")
	}
}

func TestStreamMatchesReferenceLoops(t *testing.T) {
	onRank0 := ir.Expr{Base: 1, Factor: map[int]float64{0: 0}} // taken on every rank but 0
	cases := map[string]*ir.Program{
		"nested": ir.NewBuilder("nested").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("outer", 2, ir.Const(3), func(ob *ir.Body) {
					ob.Compute("w", 3, ir.Const(5))
					ob.Loop("inner", 4, ir.Expr{Base: 2, Slope: 1}, func(ib *ir.Body) {
						ib.Allreduce(5, ir.Const(8))
						ib.Loop("closed", 6, ir.Const(10), func(cb *ir.Body) {
							cb.Compute("k", 7, ir.Const(1))
							cb.Barrier(8)
						})
					}).CommPerIter = true
				}).CommPerIter = true
			}).MustBuild(),
		"zero-and-fractional-trips": ir.NewBuilder("zero").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("none", 2, ir.Const(0), func(lb *ir.Body) { lb.Barrier(3) }).CommPerIter = true
				b.Loop("half", 4, ir.Const(0.5), func(lb *ir.Body) { lb.Barrier(5) }).CommPerIter = true
				b.Loop("frac", 6, ir.Const(2.7), func(lb *ir.Body) { lb.Barrier(7) }).CommPerIter = true
				b.Loop("empty", 8, ir.Const(1000), func(lb *ir.Body) { lb.Compute("z", 9, ir.Const(0)) }).CommPerIter = true
				b.Loop("neg", 10, ir.Expr{Base: 2, Slope: -1}, func(lb *ir.Body) { lb.Barrier(11) }).CommPerIter = true
			}).MustBuild(),
		"untaken-branches": ir.NewBuilder("branches").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("l", 2, ir.Const(4), func(lb *ir.Body) {
					lb.Branch("b", 3, onRank0, func(bb *ir.Body) {
						bb.Compute("w", 4, ir.Const(2))
						bb.Allreduce(5, ir.Const(8))
					})
					lb.Branch("never", 6, ir.Const(0), func(bb *ir.Body) { bb.Barrier(7) })
				}).CommPerIter = true
			}).MustBuild(),
		"calls-in-loops": ir.NewBuilder("calls").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("l", 2, ir.Const(3), func(lb *ir.Body) {
					lb.Call("exchange", 3)
					lb.ExternalCall("libm", 4, ir.Const(1))
					lb.Call("exchange", 5)
				}).CommPerIter = true
			}).
			Func("exchange", "x.c", 10, func(b *ir.Body) {
				b.Isend(11, ir.Peer{Kind: ir.PeerRight}, ir.Const(64), 1, "s")
				b.Irecv(12, ir.Peer{Kind: ir.PeerLeft}, ir.Const(64), 1, "r")
				b.Loop("inner", 13, ir.Const(2), func(lb *ir.Body) { lb.Barrier(14) }).CommPerIter = true
				b.Waitall(15)
			}).MustBuild(),
		"sendrecv-in-loops": ir.NewBuilder("sendrecv").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Sendrecv(2, ir.Peer{Kind: ir.PeerRight}, ir.Const(1_000_000), 0)
				b.Loop("l", 3, ir.Const(3), func(lb *ir.Body) {
					lb.Sendrecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(16), 1)
					lb.Loop("inner", 5, ir.Const(2), func(ib *ir.Body) {
						ib.Sendrecv(6, ir.Peer{Kind: ir.PeerHalo2D, Arg: 2}, ir.Const(64), 2)
					}).CommPerIter = true
				}).CommPerIter = true
				b.Sendrecv(7, ir.Peer{Kind: ir.PeerRight}, ir.Const(8), 3)
			}).MustBuild(),
	}
	for name, p := range cases {
		for _, n := range []int{1, 4, 9} {
			checkStreamMatchesReference(t, name, p, n)
		}
	}
	// Sendrecv request names stay unique per expansion across iterations.
	p := cases["sendrecv-in-loops"]
	fl := &flattener{prog: p, nranks: 4, cfg: Config{NRanks: 4}.withDefaults(), cct: trace.NewCCT()}
	entry := p.Function(p.Entry)
	if err := fl.nodes(entry.Body, fl.cct.Intern(trace.NoCtx, entry.ID()), 1); err != nil {
		t.Fatal(err)
	}
	isends := map[string]bool{}
	for c := newCursor(fl.take(0)); !c.done(); c.advance() {
		if o := c.op(); o.commOp == ir.CommIsend {
			if isends[o.req] {
				t.Fatalf("request %q named twice", o.req)
			}
			isends[o.req] = true
		}
	}
	if len(isends) != 1+3*(1+2)+1 {
		t.Fatalf("%d Sendrecv expansions, want 11", len(isends))
	}
	mustRun(t, p, Config{NRanks: 4})
}

// runsUnderCap runs p under a per-rank op cap and reports whether it was
// accepted; an accepted run must emit exactly maxOps events on rank 0.
func runsUnderCap(t *testing.T, p *ir.Program, nranks, maxOps int) bool {
	t.Helper()
	run, err := Run(p, Config{NRanks: nranks, MaxOpsPerRank: maxOps})
	if err != nil {
		if !strings.Contains(err.Error(), fmt.Sprintf("exceeds %d flattened operations", maxOps)) {
			t.Fatalf("cap %d: unexpected error %v", maxOps, err)
		}
		return false
	}
	if got := len(run.Events[0]); got != maxOps {
		t.Fatalf("cap %d: %d events, want exactly the cap", maxOps, got)
	}
	return true
}

func TestMaxOpsExactBoundary(t *testing.T) {
	cases := []struct {
		name string
		ops  int
		p    *ir.Program
	}{
		{"flat", 5, ir.NewBuilder("flat").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Const(1))
				for i := 0; i < 4; i++ {
					b.Barrier(3 + i)
				}
			}).MustBuild()},
		{"trips-x-body", 1 + 4*3, ir.NewBuilder("loop").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Const(1))
				b.Loop("l", 3, ir.Const(4), func(lb *ir.Body) {
					lb.Compute("k", 4, ir.Const(1))
					lb.Allreduce(5, ir.Const(8))
					lb.Barrier(6)
				}).CommPerIter = true
			}).MustBuild()},
		{"nested", 3 * (1 + 4*2), ir.NewBuilder("nested").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("outer", 2, ir.Const(3), func(ob *ir.Body) {
					ob.Barrier(3)
					ob.Loop("inner", 4, ir.Const(4), func(ib *ir.Body) {
						ib.Compute("k", 5, ir.Const(1))
						ib.Barrier(6)
					}).CommPerIter = true
				}).CommPerIter = true
			}).MustBuild()},
	}
	for _, tc := range cases {
		if !runsUnderCap(t, tc.p, 2, tc.ops) {
			t.Errorf("%s: %d ops rejected under a cap of %d", tc.name, tc.ops, tc.ops)
		}
		if runsUnderCap(t, tc.p, 2, tc.ops-1) {
			t.Errorf("%s: %d ops accepted under a cap of %d", tc.name, tc.ops, tc.ops-1)
		}
	}
}

// TestHugeTripCountsRejected: trip counts past int64, and non-finite ones,
// are the runaway-loop error rather than a silently empty loop.
func TestHugeTripCountsRejected(t *testing.T) {
	src := "program p\nfunc main file a.c line 1\nloop l line 2 trips 1e30 comm-per-iter\nmpi allreduce line 3 bytes 8\nend\nend\n"
	p, err := ir.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	trips := map[string]*ir.Program{"1e30": p}
	for name, v := range map[string]float64{"+Inf": math.Inf(1), "NaN": math.NaN(), "2^63": math.Ldexp(1, 63)} {
		trips[name] = ir.NewBuilder("huge").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Loop("l", 2, ir.Const(v), func(lb *ir.Body) { lb.Barrier(3) }).CommPerIter = true
			}).MustBuild()
	}
	for name, p := range trips {
		run, err := Run(p, Config{NRanks: 4})
		if err == nil || !strings.Contains(err.Error(), "flattened operations") {
			events := 0
			if run != nil {
				events = run.NumEvents()
			}
			t.Errorf("trips %s: got %d events and error %v, want the runaway-loop error", name, events, err)
		}
	}
}

// TestRunawayLoopRejectedCheaply: a 10^9-trip comm-per-iter loop at 64
// ranks is refused before anything proportional to the trip count is
// built.
func TestRunawayLoopRejectedCheaply(t *testing.T) {
	p := ir.NewBuilder("runaway").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Loop("l", 2, ir.Const(1e9), func(lb *ir.Body) {
				lb.Allreduce(3, ir.Const(8))
			}).CommPerIter = true
		}).MustBuild()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Run(p, Config{NRanks: 64})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "flattened operations") {
		t.Fatalf("want the runaway-loop error, got %v", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("rejection took %v, want under 50ms", elapsed)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
		t.Errorf("rejection allocated %.1f MB, want under 16 MB", mb)
	}
}
