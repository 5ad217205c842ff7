package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// A submission that stalls the generator must charge its wait to every job
// due behind it: their latency runs from their due time, not from when the
// stalled generator got round to sending them.
func TestOpenLoopChargesStallToQueuedJobs(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 80 * time.Millisecond
	n := 6
	offs := make([]time.Duration, n)
	jobs := make([]*jobRecord, n)
	for i := range jobs {
		offs[i] = time.Duration(i) * gap
		jobs[i] = &jobRecord{}
	}
	refused := errors.New("queue full")
	openLoop(time.Now(), offs, jobs, func(i int, j *jobRecord) (func(), error) {
		switch i {
		case 1:
			time.Sleep(stall) // the stalled submission
		case 5:
			return nil, refused
		}
		return func() {}, nil
	})

	late := func(j *jobRecord) time.Duration { return j.sent.Sub(j.due) }
	if l := jobs[1].latencyMS(); l < float64(stall/time.Millisecond) {
		t.Errorf("stalled job latency %.1f ms, want at least the %v stall", l, stall)
	}
	// Jobs 2..4 were due 10, 20 and 30 ms after job 1 but could only be
	// sent once its 80 ms stall ended: each is late by at least the rest of
	// the stall, and that lateness is part of its latency.
	for i := 2; i <= 4; i++ {
		wantLate := stall - time.Duration(i-1)*gap
		if got := late(jobs[i]); got < wantLate-2*time.Millisecond {
			t.Errorf("job %d sent %v late, want at least %v", i, got, wantLate)
		}
		if lat := jobs[i].latencyMS(); lat < float64(late(jobs[i]).Nanoseconds())/1e6 {
			t.Errorf("job %d latency %.1f ms leaves out its %v lateness", i, lat, late(jobs[i]))
		}
	}
	if late(jobs[0]) > 5*time.Millisecond {
		t.Errorf("first job sent %v late with nothing ahead of it", late(jobs[0]))
	}
	if !errors.Is(jobs[5].refused, refused) || jobs[5].done.IsZero() {
		t.Errorf("refused job not recorded: %+v", jobs[5])
	}
}

func TestArrivalsAreSeededAndExact(t *testing.T) {
	d := 2 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), 200, d)
	b := arrivals(rand.New(rand.NewSource(7)), 200, d)
	c := arrivals(rand.New(rand.NewSource(8)), 200, d)
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want 200", len(a))
	}
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if a[i] < 0 || a[i] >= d || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: out of order or outside [0, %v)", i, a[i], d)
		}
	}
	if !same || !differ {
		t.Errorf("same seed same schedule: %v; other seed other schedule: %v", same, differ)
	}
}

// Every generated serve-mix program must pass the submit-time lint gate
// and execute, or the ladder would count refusals that are the
// generator's fault.
func TestServeRequestsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	twoRuns := 0
	for i := 0; i < 60; i++ {
		req := serveRequest(rng, i)
		if req.Ranks2 > 0 {
			twoRuns++
		}
		if _, _, err := execute(req); err != nil {
			t.Fatalf("request %d: %v\n%s", i, err, req.DSL)
		}
	}
	if twoRuns == 0 {
		t.Error("no generated request has a second scale, so diff and policy never run")
	}
}
