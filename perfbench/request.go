package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"perflow"
)

// table1 are the paper's Table-1 programs, the request workloads' inputs.
var table1 = []string{"bt", "cg", "ep", "ft", "mg", "sp", "lu", "is", "zeusmp", "lammps", "vite"}

// entry is one cell of a request matrix.
type entry struct {
	Name string
	Req  perflow.AnalysisRequest
}

// topdownMatrix is request-topdown's matrix: every Table-1 program at 8
// and 64 ranks under the two analyses that need only the top-down view.
func topdownMatrix() []entry {
	var m []entry
	for _, p := range table1 {
		for _, ranks := range []int{8, 64} {
			for _, a := range []string{"profile", "comm"} {
				m = append(m, entry{fmt.Sprintf("%s@%d/%s", p, ranks, a),
					perflow.AnalysisRequest{Workload: p, Ranks: ranks, Analysis: a}})
			}
		}
	}
	return m
}

// parallelMatrix is request-parallel's matrix: every Table-1 program under
// critical-path analysis at 8 and 64 ranks and scalability analysis from 8
// to 64 ranks, plus vite's thread-contention analysis at 8 ranks x 4
// threads. Each of these builds the parallel view.
func parallelMatrix() []entry {
	var m []entry
	for _, p := range table1 {
		for _, ranks := range []int{8, 64} {
			m = append(m, entry{fmt.Sprintf("%s@%d/critical", p, ranks),
				perflow.AnalysisRequest{Workload: p, Ranks: ranks, Analysis: "critical"}})
		}
		m = append(m, entry{p + "@8-64/scalability",
			perflow.AnalysisRequest{Workload: p, Ranks: 8, Ranks2: 64, Analysis: "scalability"}})
	}
	m = append(m, entry{"vite@8x4/contention",
		perflow.AnalysisRequest{Workload: "vite", Ranks: 8, Threads: 4, Analysis: "contention"}})
	return m
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// shuffled returns the matrix in the order pass k of a run with this seed
// uses. Every pass holds each entry once, so whole passes keep the mix of
// requests, and with it the percentiles, independent of the seed.
func shuffled(m []entry, seed int64, pass int) []entry {
	out := append([]entry(nil), m...)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// execute runs one cold request the way a CLI user does: a fresh PerFlow
// handle, tracing off. It returns the wall time and the report.
func execute(req perflow.AnalysisRequest) (time.Duration, []byte, error) {
	var buf bytes.Buffer
	start := time.Now()
	_, err := perflow.New().ExecuteRequest(context.Background(), req, &buf)
	return time.Since(start), buf.Bytes(), err
}

// requestRun is the outcome of a closed-loop pass over a request matrix.
type requestRun struct {
	ms        []float64            // per-request wall time
	perEntry  map[string][]float64 // wall time per matrix entry
	turnMS    map[string][]float64 // per entry, from due to report checked
	allocs    map[string][]float64 // heap MB allocated per matrix entry
	window    time.Duration        // summed turnaround of the requests
	allocMB   float64              // heap allocated by the requests
	gcCPU     float64              // GC share of the CPU time the requests used
	gcCycles  float64
	attempted int
	failed    int
	wrong     []string
}

// runRequests runs whole shuffled passes of the matrix with one closed-loop
// client until at least budget has elapsed, checking every report against
// the manifest digests. The window, and the allocation and GC figures, cover
// only the time the client had a request outstanding, so they leave out the
// collections between requests.
func runRequests(m []entry, want map[string]string, seed int64, budget time.Duration) requestRun {
	rr := requestRun{perEntry: map[string][]float64{}, turnMS: map[string][]float64{}, allocs: map[string][]float64{}}
	var inRequests runtimeStats // runtime counters moved while a request ran
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, e := range shuffled(m, seed, pass) {
			betweenRequests()
			rr.attempted++
			due := time.Now()
			before := readRuntime()
			d, rep, err := execute(e.Req)
			delta := readRuntime().minus(before)
			inRequests = inRequests.plus(delta)
			rr.allocs[e.Name] = append(rr.allocs[e.Name], float64(delta.allocBytes)/1e6)
			if err != nil {
				rr.failed++
				rr.wrong = append(rr.wrong, fmt.Sprintf("%s: %v", e.Name, err))
				continue
			}
			ms := float64(d.Nanoseconds()) / 1e6
			rr.ms = append(rr.ms, ms)
			rr.perEntry[e.Name] = append(rr.perEntry[e.Name], ms)
			if got := digest(rep); got != want[e.Name] {
				rr.failed++
				rr.wrong = append(rr.wrong, fmt.Sprintf("%s: report digest %s, manifest has %q", e.Name, got[:12], want[e.Name]))
			}
			turn := time.Since(due)
			rr.window += turn
			rr.turnMS[e.Name] = append(rr.turnMS[e.Name], float64(turn.Nanoseconds())/1e6)
		}
	}
	rr.allocMB = float64(inRequests.allocBytes) / 1e6
	if inRequests.cpuUsed > 0 {
		rr.gcCPU = inRequests.cpuGC / inRequests.cpuUsed
	}
	rr.gcCycles = float64(inRequests.gcCycles)
	return rr
}

// betweenRequests collects the previous request's garbage outside the
// timed window, so a request does not pay for it, as a fresh CLI process
// would not, and depends less on which request ran before it.
func betweenRequests() { runtime.GC() }

// tracedRun is the outcome of replaying passes of a matrix with spans.
type tracedRun struct {
	rec       *recorder
	entries   []string // matrix entry of each operation
	attempted int
	failed    int
	wrong     []string
}

// traceRequests replays whole shuffled passes of the matrix through
// replayRequest until at least budget has elapsed. Every replayed report
// must match the manifest, so the traced requests are the ones timed
// untraced.
func traceRequests(m []entry, want map[string]string, seed int64, budget time.Duration) tracedRun {
	tr := tracedRun{rec: newRecorder()}
	start := time.Now()
	op := 0
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, e := range shuffled(m, seed+1, pass) {
			betweenRequests()
			tr.attempted++
			var buf bytes.Buffer
			err := replayRequest(context.Background(), tr.rec, op, e.Req, &buf)
			tr.entries = append(tr.entries, e.Name)
			op++
			if err != nil {
				tr.failed++
				tr.wrong = append(tr.wrong, fmt.Sprintf("%s (traced): %v", e.Name, err))
				continue
			}
			if got := digest(buf.Bytes()); got != want[e.Name] {
				tr.failed++
				tr.wrong = append(tr.wrong, fmt.Sprintf("%s (traced): report digest %s, manifest has %q", e.Name, got[:12], want[e.Name]))
			}
		}
	}
	return tr
}

// entryMedians summarizes each matrix entry: median wall time and heap
// allocation per request, for the results file.
func (rr requestRun) entryMedians() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, ms := range rr.perEntry {
		out[name] = map[string]float64{"ms_p50": median(ms), "alloc_mb_p50": median(rr.allocs[name]), "n": float64(len(ms))}
	}
	return out
}

// entryQuantile is the q-quantile over matrix entries of each entry's
// median. Every pass runs each entry once, so this estimates the quantile
// of the request-time distribution; taking each entry's median first keeps
// a single noisy sample of the entries at the quantile from moving it, as
// it would move the quantile of the raw samples, which sits in the gap
// between two entries' clusters.
func entryQuantile(per map[string][]float64, q float64) float64 {
	meds := make([]float64, 0, len(per))
	for _, xs := range per {
		meds = append(meds, median(xs))
	}
	return quantile(meds, q)
}

// perEntry groups the replayed requests' wall times by matrix entry.
func (tr tracedRun) perEntry(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "request" {
			name := tr.entries[s.Op]
			out[name] = append(out[name], s.ms())
		}
	}
	return out
}
