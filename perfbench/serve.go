package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perflow"
	"perflow/internal/serve"
	"perflow/internal/serve/store"
)

// The serve-mix traffic, fixed here so that every run offers the same load.
const (
	// serveLimitMS is the job latency limit: a ladder rung passes when at
	// most 1% of its jobs take longer (p99 within the limit).
	serveLimitMS = 250
	// warmJobs is the size of the warm set executed during set-up; every
	// resubmission names one of them, so it is a store hit.
	warmJobs = 32
	// resubmitShare is the fraction of arrivals that are resubmissions.
	resubmitShare = 0.3
)

// ladder is the offered-rate ladder in jobs per second. The first rung is
// the reference rate, at which job latency is reported; it runs for 60% of
// the measured time. The others climb by 15% from 250 jobs/s and run for a
// thirteenth of it each, in order, until one fails.
var ladder = []float64{90, 250, 288, 331, 380, 437, 503, 578, 665, 765}

var tenants = []serve.TenantConfig{
	{Name: "interactive", Key: "key-interactive", Weight: 2},
	{Name: "batch", Key: "key-batch", Weight: 1},
}

// timedStore wraps the public store.Store interface and times Get and Put
// into a recorder while one is attached. Spans carry the current ladder
// rung as their operation id, and Get spans whether they hit.
type timedStore struct {
	store.Store
	rec  atomic.Pointer[recorder]
	rung atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	rec := s.rec.Load()
	if rec == nil {
		return s.Store.Get(key)
	}
	t := rec.begin(int(s.rung.Load()), -1, "store.get", false)
	v, ok, err := s.Store.Get(key)
	hit := 0.0
	if ok {
		hit = 1
	}
	t.end(map[string]float64{"hit": hit})
	return v, ok, err
}

func (s *timedStore) Put(key string, val []byte) error {
	rec := s.rec.Load()
	if rec == nil {
		return s.Store.Put(key, val)
	}
	t := rec.begin(int(s.rung.Load()), -1, "store.put", false)
	err := s.Store.Put(key, val)
	t.end(nil)
	return err
}

// serveEnv is one in-process server over a disk store and a journal in a
// private directory.
type serveEnv struct {
	dir  string
	st   *timedStore
	srv  *serve.Server
	warm []serve.SubmitRequest
}

// openServe starts a server in a fresh directory under tmpRoot and runs
// the warm set through it, so that resubmissions hit the store.
func openServe(tmpRoot string, seed int64) (*serveEnv, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(filepath.Join(dir, "store"), 512<<20)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &serveEnv{dir: dir, st: &timedStore{Store: disk}}
	env.srv, err = serve.NewServer(serve.Options{
		// One shared queue: with a shard per worker, a job hashed to a
		// busy worker waits while another worker idles.
		Shards:     1,
		Workers:    runtime.NumCPU(),
		Store:      env.st,
		Tenants:    tenants,
		JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*serve.Job, 0, warmJobs)
	for i := 0; i < warmJobs; i++ {
		req := serve.SubmitRequest{AnalysisRequest: serveRequest(rng, i)}
		j, err := env.srv.Submit(req, tenants[i%len(tenants)].Name)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		env.warm = append(env.warm, req)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if v, err := env.srv.Await(context.Background(), j); err != nil || v.State != serve.StateDone {
			env.close()
			return nil, fmt.Errorf("warm-up job %s: state %s: %v %s", j.ID, v.State, err, v.Error)
		}
	}
	return env, nil
}

// close drains the server and removes its directory.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := e.srv.Drain(ctx)
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRecord is one arrival of the open loop.
type jobRecord struct {
	due      time.Time
	sent     time.Time
	fresh    bool
	req      serve.SubmitRequest
	refused  error
	done     time.Time
	view     serve.JobView
	awaitErr error
}

func (j *jobRecord) latencyMS() float64 {
	return float64(j.done.Sub(j.due).Nanoseconds()) / 1e6
}

// ok reports whether a job completed with a result.
func (j *jobRecord) ok() bool {
	return j.refused == nil && j.awaitErr == nil && j.view.State == serve.StateDone
}

// rungResult summarizes one rung of the ladder.
type rungResult struct {
	rate     float64
	jobs     []*jobRecord
	start    time.Time
	refused  int
	failed   int
	slow     int // completed later than the limit after their due time
	backlog  int // jobs still outstanding when the last one was due
	pass     bool
	goodput  float64
	allocMB  float64
	runtime0 runtimeStats
	runtime1 runtimeStats
}

// arrivals returns n seeded arrival offsets spread over d: the i-th job is
// due at a uniformly random point of the i-th of n equal slots, so every
// run offers exactly n jobs at the nominal rate, with gaps from zero to
// two mean gaps.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	slot := float64(d) / float64(n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// openLoop sends job i when it is due, at start+offs[i], through send,
// which returns a function that waits for the job's result. Each job's due
// time, send time and completion time are recorded; latency runs from the
// due time, so a send that stalls the generator charges its wait to every
// job due behind it. A send error marks the job refused.
func openLoop(start time.Time, offs []time.Duration, jobs []*jobRecord, send func(i int, j *jobRecord) (func(), error)) {
	var wg sync.WaitGroup
	for i, j := range jobs {
		j.due = start.Add(offs[i])
		if wait := time.Until(j.due); wait > 0 {
			time.Sleep(wait)
		}
		j.sent = time.Now()
		await, err := send(i, j)
		if err != nil {
			j.refused = err
			j.done = time.Now()
			continue
		}
		// One waiter per accepted job: a rung offers a bounded number.
		wg.Add(1)
		go func(j *jobRecord) {
			defer wg.Done()
			await()
			j.done = time.Now()
		}(j)
	}
	wg.Wait()
}

// runRung offers rate jobs per second for d through one open-loop
// generator. Each job's latency runs from the moment it was due, so a
// generator stalled behind a slow submission charges the wait to every job
// queued behind it. nextFresh numbers the fresh programs across rungs.
func runRung(env *serveEnv, rng *rand.Rand, rate float64, d time.Duration, nextFresh *int, rec *recorder, rung int) *rungResult {
	n := int(math.Round(rate * d.Seconds()))
	offs := arrivals(rng, n, d)
	rr := &rungResult{rate: rate, jobs: make([]*jobRecord, n)}
	for i := range rr.jobs {
		j := &jobRecord{}
		if rng.Float64() < resubmitShare {
			j.req = env.warm[rng.Intn(len(env.warm))]
		} else {
			j.fresh = true
			j.req = serve.SubmitRequest{AnalysisRequest: serveRequest(rng, *nextFresh)}
			*nextFresh++
		}
		rr.jobs[i] = j
	}
	tenantOf := make([]string, n)
	for i := range tenantOf {
		tenantOf[i] = tenants[rng.Intn(len(tenants))].Name
	}

	env.st.rung.Store(int64(rung))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rr.runtime0 = readRuntime()
	rr.start = time.Now()
	openLoop(rr.start, offs, rr.jobs, func(i int, j *jobRecord) (func(), error) {
		var t *timer
		if rec != nil {
			t = rec.begin(rung, -1, "serve.submit", false)
		}
		job, err := env.srv.Submit(j.req, tenantOf[i])
		if t != nil {
			fresh := 0.0
			if j.fresh {
				fresh = 1
			}
			t.end(map[string]float64{"fresh": fresh})
		}
		if err != nil {
			return nil, err
		}
		return func() { j.view, j.awaitErr = env.srv.Await(ctx, job) }, nil
	})
	rr.runtime1 = readRuntime()
	rr.allocMB = float64(rr.runtime1.allocBytes-rr.runtime0.allocBytes) / 1e6

	var lastDue, lastDone time.Time
	for _, j := range rr.jobs {
		if j.due.After(lastDue) {
			lastDue = j.due
		}
	}
	ok := 0
	for _, j := range rr.jobs {
		switch {
		case j.refused != nil:
			rr.refused++
		case !j.ok():
			rr.failed++
		default:
			if j.latencyMS() > serveLimitMS {
				rr.slow++
			} else {
				ok++
			}
		}
		if j.done.After(lastDue) {
			rr.backlog++
		}
		if j.done.After(lastDone) {
			lastDone = j.done
		}
	}
	// Little's law: a backlog larger than rate x limit cannot drain within
	// the limit, so the rung is past capacity.
	backlogOK := float64(rr.backlog) <= rate*serveLimitMS/1000
	rr.pass = rr.refused == 0 && rr.failed == 0 && float64(rr.slow) <= 0.01*float64(n) && backlogOK
	if span := lastDone.Sub(rr.start).Seconds(); span > 0 {
		rr.goodput = float64(ok) / span
	}
	return rr
}

// servedReport extracts the report text from a finished job's result.
func servedReport(v serve.JobView) (string, error) {
	var r serve.JobResult
	if err := json.Unmarshal(v.Result, &r); err != nil {
		return "", fmt.Errorf("job %s: decode result: %w", v.ID, err)
	}
	return r.Report, nil
}

// oracleCase is one distinct served request and the report it was served.
type oracleCase struct {
	key    string
	req    perflow.AnalysisRequest
	report string
}

// distinctServed groups every completed job by content address. Jobs that
// share an address must have been served identical reports.
func distinctServed(rungs []*rungResult) ([]oracleCase, []string) {
	var cases []oracleCase
	seen := map[string]int{}
	var wrong []string
	for _, rr := range rungs {
		for _, j := range rr.jobs {
			if !j.ok() {
				continue
			}
			rep, err := servedReport(j.view)
			if err != nil {
				wrong = append(wrong, err.Error())
				continue
			}
			if k, ok := seen[j.view.Key]; ok {
				if cases[k].report != rep {
					wrong = append(wrong, fmt.Sprintf("job %s: report differs from an earlier job with key %.12s", j.view.ID, j.view.Key))
				}
				continue
			}
			seen[j.view.Key] = len(cases)
			cases = append(cases, oracleCase{key: j.view.Key, req: j.req.AnalysisRequest, report: rep})
		}
	}
	return cases, wrong
}

// oracleRun re-executes every distinct served request in process, after
// the timed window, and compares the reports byte for byte. It returns the
// per-request wall times of the untraced executions. With rec set it also
// replays each request with spans and checks that report too.
func oracleRun(cases []oracleCase, rec *recorder) (ms []float64, window time.Duration, wrong []string) {
	start := time.Now()
	for _, c := range cases {
		d, rep, err := execute(c.req)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("oracle %.12s: %v", c.key, err))
			continue
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
		if string(rep) != c.report {
			wrong = append(wrong, fmt.Sprintf("oracle %.12s: served report differs from ExecuteRequest", c.key))
		}
	}
	window = time.Since(start)
	if rec == nil {
		return ms, window, wrong
	}
	for op, c := range cases {
		var buf bytes.Buffer
		if err := replayRequest(context.Background(), rec, op, c.req, &buf); err != nil {
			wrong = append(wrong, fmt.Sprintf("oracle %.12s (traced): %v", c.key, err))
			continue
		}
		if buf.String() != c.report {
			wrong = append(wrong, fmt.Sprintf("oracle %.12s (traced): replayed report differs from the served one", c.key))
		}
	}
	return ms, window, wrong
}

// serveRun is one run of serve-mix traffic and the oracle check of what
// the server returned.
type serveRun struct {
	rungs        []*rungResult
	spans        []span // serve.submit, store.get and store.put (traced)
	oracleMS     []float64
	oracleWindow time.Duration
	oracleSpans  []span // replays of the distinct served requests (traced)
	wrong        []string
}

// runServe offers serve-mix traffic to env: the reference rung, then,
// unless refOnly, the ladder rungs until one fails. It then drains the
// server and runs the oracle over every distinct served request.
func runServe(env *serveEnv, seed int64, total time.Duration, trace, refOnly bool) (*serveRun, error) {
	r := &serveRun{}
	var rec *recorder
	if trace {
		rec = newRecorder()
		env.st.rec.Store(rec)
	}
	rng := rand.New(rand.NewSource(seed))
	nextFresh := warmJobs // indices below are the warm set's
	for k, rate := range ladder {
		d := total / 13
		if k == 0 {
			d = total * 6 / 10
		}
		rr := runRung(env, rng, rate, d, &nextFresh, rec, k)
		r.rungs = append(r.rungs, rr)
		if refOnly || !rr.pass {
			break
		}
	}
	env.st.rec.Store(nil)
	if err := env.close(); err != nil {
		return nil, err
	}
	cases, wrong := distinctServed(r.rungs)
	var orec *recorder
	if trace {
		r.spans = rec.snapshot()
		orec = newRecorder()
	}
	var owrong []string
	r.oracleMS, r.oracleWindow, owrong = oracleRun(cases, orec)
	if trace {
		r.oracleSpans = orec.snapshot()
	}
	r.wrong = append(wrong, owrong...)
	return r, nil
}

// tally sums the ladder: jobs refused and completed, and retried attempts.
func (r *serveRun) tally() (refused, retries, completed int) {
	for _, rr := range r.rungs {
		refused += rr.refused
		completed += len(rr.jobs) - rr.refused - rr.failed
		for _, j := range rr.jobs {
			retries += len(j.view.Attempts)
		}
	}
	return refused, retries, completed
}

// counts returns the operations attempted and failed. Refusals count as
// failures at the reference rate only; above it they are the load shedding
// the ladder probes for. Every wrong report counts.
func (r *serveRun) counts() (attempted, failed int) {
	for _, rr := range r.rungs {
		attempted += len(rr.jobs)
		failed += rr.failed
	}
	return attempted, failed + r.rungs[0].refused + len(r.wrong)
}

// endToEnd fills the end-to-end metrics of serve-mix.
func (r *serveRun) endToEnd(v map[string]float64, details map[string]any) {
	var jobMS []float64
	for _, j := range r.rungs[0].jobs {
		if j.ok() {
			jobMS = append(jobMS, j.latencyMS())
		}
	}
	allocMB := 0.0
	for _, rr := range r.rungs {
		allocMB += rr.allocMB
	}
	_, _, completed := r.tally()
	goodput := 0.0
	for _, rr := range r.rungs {
		if rr.pass {
			goodput = rr.goodput
		}
	}
	qJob := tailQuantile(0.99, len(jobMS))
	qReq := tailQuantile(0.90, len(r.oracleMS))
	v["request_ms.p50"] = median(r.oracleMS)
	v["request_ms.p90"] = quantile(r.oracleMS, qReq)
	v["requests_per_s"] = float64(len(r.oracleMS)) / r.oracleWindow.Seconds()
	v["alloc_mb_per_req"] = allocMB / float64(max(completed, 1))
	v["job_ms.p50"] = median(jobMS)
	v["job_ms.p99"] = quantile(jobMS, qJob)
	v["goodput_jobs_per_s"] = goodput
	details["job_samples"] = len(jobMS)
	details["job_ms.p99_quantile"] = qJob
	details["request_samples"] = len(r.oracleMS)
	details["request_ms.p90_quantile"] = qReq
}

// serveLayers fills the per-layer metrics of the serve and store layers
// from a traced run: Submit, queue wait and execution of fresh jobs, store
// operations and generator lateness at the reference rate, refusals and
// retries over the whole ladder.
func (r *serveRun) serveLayers(v map[string]float64) {
	ref := r.rungs[0]
	var waitMS, execMS, lateMS []float64
	for _, j := range ref.jobs {
		lateMS = append(lateMS, float64(j.sent.Sub(j.due).Nanoseconds())/1e6)
		if j.ok() && j.fresh && j.view.StartedAt != nil && j.view.FinishedAt != nil {
			waitMS = append(waitMS, float64(j.view.StartedAt.Sub(j.view.SubmittedAt).Nanoseconds())/1e6)
			execMS = append(execMS, float64(j.view.FinishedAt.Sub(*j.view.StartedAt).Nanoseconds())/1e6)
		}
	}
	var submitMS, getMS, putMS []float64
	hits := 0.0
	for _, s := range r.spans {
		if s.Op != 0 {
			continue // not the reference rung
		}
		switch s.Name {
		case "serve.submit":
			if s.Count["fresh"] == 1 {
				submitMS = append(submitMS, s.ms())
			}
		case "store.get":
			getMS = append(getMS, s.ms())
			hits += s.Count["hit"]
		case "store.put":
			putMS = append(putMS, s.ms())
		}
	}
	refused, retries, _ := r.tally()
	attempted, _ := r.counts()
	v["serve.submit_ms"] = median(submitMS)
	v["serve.queue_wait_ms.p99"] = quantile(waitMS, tailQuantile(0.99, len(waitMS)))
	v["serve.exec_ms"] = median(execMS)
	v["serve.rejected_ratio"] = float64(refused) / float64(max(attempted, 1))
	v["serve.retries"] = float64(retries)
	v["store.get_ms"] = median(getMS)
	v["store.put_ms"] = median(putMS)
	v["store.hit_ratio"] = 0
	if len(getMS) > 0 {
		v["store.hit_ratio"] = hits / float64(len(getMS))
	}
	v["loadgen.late_ms.p99"] = quantile(lateMS, tailQuantile(0.99, len(lateMS)))
}

// details describes the ladder for the results file.
func (r *serveRun) details() map[string]any {
	var rungs []map[string]any
	top := 0.0
	for _, rr := range r.rungs {
		rungs = append(rungs, map[string]any{
			"rate": rr.rate, "jobs": len(rr.jobs), "refused": rr.refused, "failed": rr.failed,
			"slow": rr.slow, "backlog": rr.backlog, "pass": rr.pass, "goodput": rr.goodput,
		})
		if rr.pass {
			top = rr.rate
		}
	}
	return map[string]any{
		"ladder":                 rungs,
		"limit_ms":               serveLimitMS,
		"highest_passing_rate":   top,
		"distinct_served":        len(r.oracleMS),
		"slowest_reference_jobs": slowest(r.rungs[0].jobs, 10),
	}
}

// slowest breaks down the latency of the n slowest completed jobs: how
// late the generator sent each, how long Submit took, the queue wait, the
// execution, and the time from finishing to Await returning.
func slowest(jobs []*jobRecord, n int) []map[string]any {
	var done []*jobRecord
	for _, j := range jobs {
		if j.refused == nil && j.awaitErr == nil && j.view.StartedAt != nil && j.view.FinishedAt != nil {
			done = append(done, j)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].latencyMS() > done[b].latencyMS() })
	if len(done) > n {
		done = done[:n]
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var out []map[string]any
	for _, j := range done {
		out = append(out, map[string]any{
			"job": j.view.ID, "fresh": j.fresh, "latency_ms": j.latencyMS(),
			"late_ms":   ms(j.sent.Sub(j.due)),
			"submit_ms": ms(j.view.SubmittedAt.Sub(j.sent)),
			"queue_ms":  ms(j.view.StartedAt.Sub(j.view.SubmittedAt)),
			"exec_ms":   ms(j.view.FinishedAt.Sub(*j.view.StartedAt)),
			"wake_ms":   ms(j.done.Sub(*j.view.FinishedAt)),
		})
	}
	return out
}
