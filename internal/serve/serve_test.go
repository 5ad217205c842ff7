package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"perflow"
)

// newTestServer builds a server plus its HTTP front end and tears both
// down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeView(t *testing.T, data []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad job view %s: %v", data, err)
	}
	return v
}

// waitTerminal polls a job until it leaves the queued/running states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, data)
		}
		v := decodeView(t, data)
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls until the job reaches exactly the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, data)
		}
		if v := decodeView(t, data); v.State == want {
			return
		} else if v.State == StateDone || v.State == StateFailed {
			t.Fatalf("job %s reached %s while waiting for %s", id, v.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach %s within %s", id, want, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("bad metrics JSON %s: %v", data, err)
	}
	return m
}

// slowDSL builds a program whose simulation takes long enough to observe
// running/queued states: op count, not virtual cost, is what simulation
// time scales with.
func slowDSL(trips int) string {
	return fmt.Sprintf(`program slow
func main file slow.c line 1
  loop outer line 2 trips %d comm-per-iter
    compute work line 3 cost 10
    mpi allreduce line 4 bytes 8
  end
end
`, trips)
}

// allCallsAllDSL is n functions that each run an allreduce and call every
// other one: too large to lint at n = 9.
func allCallsAllDSL(n int) string {
	var b strings.Builder
	b.WriteString("program acc\nfunc main file a.c line 1\n  call f0 line 2\nend\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "func f%d file a.c line %d\n  mpi allreduce line %d bytes 8\n", i, 100*i+10, 100*i+11)
		for j := 0; j < n; j++ {
			if j != i {
				fmt.Fprintf(&b, "  call f%d line %d\n", j, 100*i+20+j)
			}
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// TestSubmitPollResult is the primary e2e path: submit a workload job,
// poll to completion, and check the report is byte-identical to the
// equivalent CLI invocation (both sides run perflow.AnalyzeCtx).
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	req := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", Analysis: "comm", Ranks: 4}}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	v := decodeView(t, data)
	if v.State != StateQueued || v.ID == "" || v.Key == "" {
		t.Fatalf("unexpected submit view: %+v", v)
	}

	final := waitTerminal(t, ts, v.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	var result JobResult
	if err := json.Unmarshal(final.Result, &result); err != nil {
		t.Fatalf("bad result payload: %v", err)
	}

	// The CLI-equivalent invocation: pflow -workload cg -ranks 4 -analysis comm.
	pf := perflow.New()
	res, err := pf.RunWorkload("cg", perflow.RunOptions{Ranks: 4, Threads: 1, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := pf.AnalyzeCtx(context.Background(), res, nil, "comm", 10, &want); err != nil {
		t.Fatal(err)
	}
	if result.Report != want.String() {
		t.Errorf("served report differs from CLI-equivalent output\n--- served ---\n%s\n--- cli ---\n%s", result.Report, want.String())
	}
	// comm runs through the PerFlowGraph engine: the per-pass trace and the
	// imbalanced set must be present.
	if result.Trace == nil || len(result.Trace.Spans) == 0 {
		t.Error("missing execution trace on paradigm analysis")
	}
	if len(result.Sets) != 1 {
		t.Errorf("want 1 result set, got %d", len(result.Sets))
	}
	if result.ElapsedUS <= 0 {
		t.Error("missing elapsed time")
	}
}

// TestCacheHitOnResubmit checks the content-addressed fast path: an
// identical resubmission completes synchronously from the cache, visible
// in /metrics.
func TestCacheHitOnResubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	req := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "ep", Analysis: "hotspot", Ranks: 4, Top: 5}}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	first := waitTerminal(t, ts, decodeView(t, data).ID, 30*time.Second)
	if first.State != StateDone {
		t.Fatalf("first run finished %s (%s)", first.State, first.Error)
	}

	// Resubmit: must complete inline (200, not 202), flagged cached, with
	// the identical result payload.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: want 200, got %d: %s", resp.StatusCode, data)
	}
	second := decodeView(t, data)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmit not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Error("cache hit must still mint a fresh job id")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("cached result differs from original")
	}
	if second.Key != first.Key {
		t.Errorf("content address changed: %s vs %s", first.Key, second.Key)
	}

	// A client still sending the deprecated, ignored no_plan field is
	// accepted and answered from the same content address.
	noPlan := json.RawMessage(`{"workload":"ep","analysis":"hotspot","ranks":4,"top":5,"no_plan":true}`)
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", noPlan)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_plan resubmit: want 200, got %d: %s", resp.StatusCode, data)
	}
	if third := decodeView(t, data); third.Key != first.Key || !third.Cached {
		t.Errorf("no_plan resubmit: key %s cached %v, want key %s from cache", third.Key, third.Cached, first.Key)
	}

	// A formatting-only DSL variant hits the same cache line logic via Key
	// equality (covered in TestRequestKey); here assert the hit counters.
	m := metricsSnapshot(t, ts)
	if hits := m["cache_hits"].(float64); hits < 1 {
		t.Errorf("cache_hits = %v, want >= 1", hits)
	}
	if done := m["jobs_done"].(float64); done < 2 {
		t.Errorf("jobs_done = %v, want >= 2", done)
	}
}

// TestEmbeddedCacheHitSyncsMetrics checks that a repeat Submit is answered
// from the store as a done job and leaves the published metric tree (read
// without going through /metrics, which syncs on its own) counting the hit.
func TestEmbeddedCacheHitSyncsMetrics(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	req := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "ep", Analysis: "profile", Ranks: 4}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, wantCached := range []bool{false, true} {
		j, err := s.Submit(req, "")
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Await(ctx, j)
		if err != nil || v.State != StateDone || v.Cached != wantCached {
			t.Fatalf("submit %d: state %s cached %v err %v, want done cached %v", i, v.State, v.Cached, err, wantCached)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(s.Metrics().String()), &m); err != nil {
		t.Fatal(err)
	}
	if hits := m["cache_hits"].(float64); hits != 1 {
		t.Errorf("cache_hits = %v, want 1", hits)
	}
}

// TestLintReject422 checks synchronous validation: a program with an
// error-severity static finding is refused before any simulation, with the
// structured diagnostics in the response body.
func TestLintReject422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "dsl", "bad", "leaked_request.pfl"))
	if err != nil {
		t.Fatal(err)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: string(src), Analysis: "profile", Ranks: 4}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d: %s", resp.StatusCode, data)
	}
	var er apiError
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("bad error body %s: %v", data, err)
	}
	if er.Code != ErrCodeLintRejected {
		t.Errorf("envelope code = %q, want %q", er.Code, ErrCodeLintRejected)
	}
	if er.Message == "" {
		t.Errorf("envelope without a message: %s", data)
	}
	if len(er.Details) == 0 {
		t.Fatalf("422 without details: %s", data)
	}
	found := false
	for _, d := range er.Details {
		if d.Kind != "lint" {
			t.Errorf("detail kind = %q, want lint", d.Kind)
		}
		if d.Code == "PF010" {
			found = true
			if d.Diagnostic == nil || d.Diagnostic.Message == "" {
				t.Errorf("PF010 detail missing the full diagnostic: %s", data)
			}
		}
	}
	if !found {
		t.Errorf("expected a PF010 unwaited-request finding, got %s", data)
	}
}

// TestValidation422 covers the malformed-request rejections.
func TestValidation422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"no_program", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Analysis: "profile"}}},
		{"both_programs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", DSL: "program p\nfunc main file a.c line 1\nend\n"}}},
		{"unknown_workload", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "no-such-app"}}},
		{"unknown_analysis", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", Analysis: "frobnicate"}}},
		{"parse_error", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: "program p\nfunc main\n"}}},
		{"scalability_needs_ranks2", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", Analysis: "scalability", Ranks: 8, Ranks2: 4}}},
		{"ranks_limit", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", Ranks: 1 << 20}}},
		{"too_large_to_lint", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: allCallsAllDSL(9)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tc.req)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("want 422, got %d: %s", resp.StatusCode, data)
			}
			var er apiError
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("bad error envelope %s: %v", data, err)
			}
			if er.Code != ErrCodeInvalidRequest || er.Message == "" {
				t.Errorf("envelope = {code:%q message:%q}, want code %q with a message",
					er.Code, er.Message, ErrCodeInvalidRequest)
			}
		})
	}
}

// TestQueueFullBackpressureAndCancel fills a 1-worker, depth-1 queue and
// checks the 429 + Retry-After backpressure, then cancels both the queued
// and the running job.
func TestQueueFullBackpressureAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, JobTimeout: 2 * time.Minute})

	// Occupy the worker with a slow job, then fill the single queue slot.
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: slowDSL(20000), Analysis: "profile", Ranks: 48}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit running job: %d: %s", resp.StatusCode, data)
	}
	running := decodeView(t, data)
	waitState(t, ts, running.ID, StateRunning, 30*time.Second)

	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: slowDSL(20001), Analysis: "profile", Ranks: 48}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued job: %d: %s", resp.StatusCode, data)
	}
	queued := decodeView(t, data)

	// Queue full: bounded backpressure, not unbounded acceptance.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: slowDSL(20002), Analysis: "profile", Ranks: 48}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if m := metricsSnapshot(t, ts); m["jobs_rejected"].(float64) < 1 {
		t.Errorf("jobs_rejected = %v, want >= 1", m["jobs_rejected"])
	}

	// Cancel the queued job: terminal immediately, no run.
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %d: %s", resp.StatusCode, data)
	}
	if v := waitTerminal(t, ts, queued.ID, 5*time.Second); v.State != StateCanceled {
		t.Fatalf("queued job finished %s, want canceled", v.State)
	}

	// Cancel the running job mid-run: the context unwinds out of the
	// simulator's replay loop.
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: %d: %s", resp.StatusCode, data)
	}
	if v := waitTerminal(t, ts, running.ID, 30*time.Second); v.State != StateCanceled {
		t.Fatalf("running job finished %s, want canceled", v.State)
	}

	// A canceled job cannot be canceled again.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: want 409, got %d", resp.StatusCode)
	}
}

// TestDrainRejectsNewWork: after Drain, readiness flips to 503 and
// submissions are refused — but liveness stays 200, because a draining
// process is healthy, just not accepting traffic. An orchestrator that
// killed pods on liveness during drain would truncate every graceful
// shutdown.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: want 200, got %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: want 200 (liveness), got %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: want 503, got %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "ep", Ranks: 2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: want 503, got %d", resp.StatusCode)
	}
}

// TestConcurrentStress fires a burst of mixed submissions at a 2-worker
// pool and verifies every job reaches a terminal state with consistent
// metrics. Run under -race this doubles as the scheduler/cache race test.
func TestConcurrentStress(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 64})

	analyses := []string{"profile", "hotspot", "waitstates"}
	const n = 30
	ids := make([]string, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Duplicate keys on purpose: i%5 distinct requests, so later
			// submissions can hit the cache while earlier ones still run.
			req := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "listing2", Analysis: analyses[i%len(analyses)], Ranks: 2 + 2*(i%5/len(analyses)+1)}}
			resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
			switch resp.StatusCode {
			case http.StatusAccepted, http.StatusOK:
				mu.Lock()
				ids[i] = decodeView(t, data).ID
				mu.Unlock()
			case http.StatusTooManyRequests:
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("submit %d: unexpected status %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()

	completed := 0
	for _, id := range ids {
		if id == "" {
			continue
		}
		if v := waitTerminal(t, ts, id, 60*time.Second); v.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, v.State, v.Error)
		} else {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no job completed")
	}
	m := metricsSnapshot(t, ts)
	if done := int(m["jobs_done"].(float64)); done != completed {
		t.Errorf("jobs_done = %d, want %d", done, completed)
	}
	if running := int(m["jobs_running"].(float64)); running != 0 {
		t.Errorf("jobs_running gauge = %d after quiesce", running)
	}
	if queued := int(m["jobs_queued"].(float64)); queued != 0 {
		t.Errorf("jobs_queued gauge = %d after quiesce", queued)
	}

	// The listing endpoint sees every retained job.
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != n-rejected {
		t.Errorf("list has %d jobs, want %d", len(list.Jobs), n-rejected)
	}
}

// TestRequestKey pins the canonicalization rules: formatting variants
// share a key, semantic differences (including lint suppressions) do not,
// and parallelism/timeout knobs never affect content identity.
func TestRequestKey(t *testing.T) {
	base := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{DSL: "program p\nfunc main file a.c line 1\ncompute c line 2 cost 5\nend\n", Analysis: "profile", Ranks: 4}}.withDefaults()

	reformatted := base
	reformatted.DSL = "# a comment\nprogram   p\n\n  func main file a.c line 1\n  compute c line 2 cost 5\n\tend\n"
	if base.Key() != reformatted.Key() {
		t.Error("formatting-only DSL variant changed the key")
	}

	lintDirective := base
	lintDirective.DSL = "# lint:disable=PF021\n" + base.DSL
	if base.Key() == lintDirective.Key() {
		t.Error("lint:disable directive must be part of program identity")
	}

	parallel := base
	parallel.Parallelism = 7
	parallel.TimeoutMS = 1234
	if base.Key() != parallel.Key() {
		t.Error("parallelism/timeout must not affect the content address")
	}

	other := base
	other.Ranks = 8
	if base.Key() == other.Key() {
		t.Error("rank count must affect the content address")
	}

	wl := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "cg", Analysis: "profile", Ranks: 4}}.withDefaults()
	wl2 := wl
	wl2.Workload = "ep"
	if wl.Key() == wl2.Key() {
		t.Error("workload name must affect the content address")
	}
	if !strings.Contains(wl.Key(), "") || len(wl.Key()) != 64 {
		t.Errorf("key is not a sha256 hex digest: %q", wl.Key())
	}
}
