package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// This file stresses the dispatcher under -race: concurrent
// multi-tenant submissions with mid-run cancellations and a drain while
// work is still in flight must never lose a job or execute one twice.

// authJSON is doJSON with a tenant API key attached.
func authJSON(t *testing.T, method, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	return headerJSON(t, method, url, map[string]string{"X-API-Key": key}, body)
}

func headerJSON(t *testing.T, method, url string, headers map[string]string, body any) (*http.Response, []byte) {
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
	for k, v := range headers {
		req.Header.Set(k, v)
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

// uniqueDSL builds a distinct tiny program per index, so every submission
// has a unique content address (no cache hits, every job really executes).
func uniqueDSL(i int) string {
	return fmt.Sprintf(`program stress%d
func main file s.c line 1
  loop l line 2 trips 8 comm-per-iter
    compute work line 3 cost %d
    mpi allreduce line 4 bytes 8
  end
end
`, i, 10+i)
}

// execRecorder counts worker executions per job ID via testExecHook — the
// no-lost-no-double-run oracle.
type execRecorder struct {
	mu    sync.Mutex
	count map[string]int
}

func newExecRecorder(s *Server) *execRecorder {
	r := &execRecorder{count: make(map[string]int)}
	s.mu.Lock()
	s.testExecHook = func(j *Job) {
		r.mu.Lock()
		r.count[j.ID]++
		r.mu.Unlock()
	}
	s.mu.Unlock()
	return r
}

func (r *execRecorder) executions(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count[id]
}

func TestDispatcherStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tenants := []TenantConfig{
		{Name: "alpha", Key: "key-alpha", Quota: 64, Weight: 3},
		{Name: "beta", Key: "key-beta", Quota: 64, Weight: 1},
		{Name: "gamma", Key: "key-gamma", Quota: 64, Weight: 1},
	}
	s := New(Options{
		Workers:    4,
		QueueDepth: 256,
		Tenants:    tenants,
		JobTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rec := newExecRecorder(s)

	const perTenant = 30
	var (
		mu       sync.Mutex
		accepted []string // job IDs the server accepted (202)
		rejected int      // 429s (quota or queue full) — allowed, just counted
	)
	var wg sync.WaitGroup
	for ti, tc := range tenants {
		wg.Add(1)
		go func(ti int, key string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				n := ti*perTenant + i
				req := SubmitRequest{}
				req.DSL = uniqueDSL(n)
				req.Analysis = "profile"
				req.Ranks = 2
				resp, data := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", key, req)
				switch resp.StatusCode {
				case http.StatusAccepted:
					v := decodeView(t, data)
					mu.Lock()
					accepted = append(accepted, v.ID)
					mu.Unlock()
					// Cancel every third job right after submitting it:
					// depending on timing it is still queued (removed from
					// the queue), already running (context-canceled), or
					// already finished (409) — all must stay consistent.
					if n%3 == 0 {
						authJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, key, nil)
					}
				case http.StatusTooManyRequests:
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("submit %d: unexpected status %d: %s", n, resp.StatusCode, data)
				}
			}
		}(ti, tc.Key)
	}
	wg.Wait()

	// Drain while the backlog is still being worked — the SIGTERM path.
	// Queued jobs must still run (or be canceled), never be dropped.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if len(accepted) == 0 {
		t.Fatal("no job was accepted; stress proved nothing")
	}
	t.Logf("accepted=%d rejected=%d", len(accepted), rejected)

	var done, failed, canceled int
	for _, id := range accepted {
		j, ok := s.job(id)
		if !ok {
			t.Errorf("accepted job %s lost from the registry", id)
			continue
		}
		s.mu.Lock()
		state, errMsg := j.state, j.err
		terminal := j.terminalLocked()
		s.mu.Unlock()
		if !terminal {
			t.Errorf("job %s not terminal after drain: %s", id, state)
			continue
		}
		execs := rec.executions(id)
		if execs > 1 {
			t.Errorf("job %s executed %d times", id, execs)
		}
		switch state {
		case StateDone:
			done++
			if execs != 1 {
				t.Errorf("done job %s executed %d times, want 1", id, execs)
			}
		case StateFailed:
			failed++
			if execs != 1 {
				t.Errorf("failed job %s executed %d times, want 1", id, execs)
			}
		case StateCanceled:
			canceled++
			if errMsg == "canceled before start" && execs != 0 {
				t.Errorf("queue-canceled job %s was executed %d times", id, execs)
			}
		}
	}
	if done+failed+canceled != len(accepted) {
		t.Errorf("terminal states %d+%d+%d != accepted %d", done, failed, canceled, len(accepted))
	}
	if done == 0 {
		t.Error("no job completed; stress proved nothing")
	}

	// Every quota slot must have been released on the way to terminal.
	s.mu.Lock()
	for name, tn := range s.tenants.byName {
		if tn.inflight != 0 {
			t.Errorf("tenant %s leaked %d quota slots", name, tn.inflight)
		}
	}
	s.mu.Unlock()
}

// TestCancelQueuedRemovesFromQueue pins the DELETE-on-queued fix: the
// job leaves the queue immediately (freeing the backpressure slot)
// and is never executed.
func TestCancelQueuedRemovesFromQueue(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	// The exec hook both counts executions and parks the worker on the
	// first job until released, so the next submission is deterministically
	// stuck in the queue.
	var (
		recMu   sync.Mutex
		count   = map[string]int{}
		gate    = make(chan struct{})
		gated   = make(chan string, 1)
		gateOne sync.Once
	)
	s.mu.Lock()
	s.testExecHook = func(j *Job) {
		recMu.Lock()
		count[j.ID]++
		recMu.Unlock()
		block := false
		gateOne.Do(func() { block = true })
		if block {
			gated <- j.ID
			<-gate
		}
	}
	s.mu.Unlock()
	executions := func(id string) int {
		recMu.Lock()
		defer recMu.Unlock()
		return count[id]
	}

	// Occupy the single worker.
	slow := SubmitRequest{}
	slow.DSL = slowDSL(50)
	slow.Analysis = "profile"
	slow.Ranks = 2
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit: %d: %s", resp.StatusCode, data)
	}
	slowID := decodeView(t, data).ID
	select {
	case id := <-gated:
		if id != slowID {
			t.Fatalf("worker parked on %s, want %s", id, slowID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first job")
	}

	// Fill the one queue slot.
	queued := SubmitRequest{}
	queued.DSL = uniqueDSL(100000)
	queued.Analysis = "profile"
	queued.Ranks = 2
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d: %s", resp.StatusCode, data)
	}
	queuedID := decodeView(t, data).ID
	if got := s.queue.depthNow(); got != 1 {
		t.Fatalf("queue depth = %d, want 1", got)
	}

	// The queue is full: a third submission must bounce with 429.
	third := SubmitRequest{}
	third.DSL = uniqueDSL(100001)
	third.Analysis = "profile"
	third.Ranks = 2
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", third); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: %d, want 429", resp.StatusCode)
	}

	// Cancel the queued job: it must leave the queue at once...
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %d: %s", resp.StatusCode, data)
	}
	if v := decodeView(t, data); v.State != StateCanceled {
		t.Fatalf("canceled job state = %s, want %s", v.State, StateCanceled)
	}
	if got := s.queue.depthNow(); got != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0 (slot not freed)", got)
	}

	// ...freeing the slot for new work while the slow job still runs.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", third)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d: %s", resp.StatusCode, data)
	}
	thirdID := decodeView(t, data).ID

	// Release the worker and let everything else finish; the canceled job
	// must never have run.
	close(gate)
	waitTerminal(t, ts, slowID, 30*time.Second)
	waitTerminal(t, ts, thirdID, 30*time.Second)
	if n := executions(queuedID); n != 0 {
		t.Errorf("canceled-while-queued job executed %d times, want 0", n)
	}
	if n := executions(thirdID); n != 1 {
		t.Errorf("replacement job executed %d times, want 1", n)
	}
}

// TestNoHeadOfLineBlocking pins the one-queue dispatcher: with a job parked
// on one worker, the next job starts on an idle worker whatever its content
// address. The two programs are picked so their content addresses agree in
// the parity of their leading 64 bits: a router that split jobs into two
// lanes by that value would queue the second behind the parked first.
func TestNoHeadOfLineBlocking(t *testing.T) {
	s := New(Options{Shards: 2, Workers: 1})
	release := make(chan struct{})
	defer func() {
		close(release)
		s.Drain(context.Background())
	}()

	req := func(i int) SubmitRequest {
		r := SubmitRequest{}
		r.DSL = uniqueDSL(200000 + i)
		r.Analysis = "profile"
		r.Ranks = 2
		return r
	}
	lane := func(r SubmitRequest) uint64 {
		v, err := strconv.ParseUint(r.withDefaults().Key()[:16], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v % 2
	}
	first, second := req(0), SubmitRequest{}
	for i := 1; ; i++ {
		if r := req(i); lane(r) == lane(first) {
			second = r
			break
		}
	}

	started := make(chan string, 2)
	s.mu.Lock()
	s.testExecHook = func(j *Job) {
		started <- j.ID
		if j.Key == first.withDefaults().Key() {
			<-release
		}
	}
	s.mu.Unlock()

	j1, err := s.Submit(first, "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-started:
		if id != j1.ID {
			t.Fatalf("first job to start = %s, want %s", id, j1.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first job never started")
	}
	j2, err := s.Submit(second, "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-started:
		if id != j2.ID {
			t.Fatalf("job started = %s, want %s", id, j2.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second job waited behind the parked first while a worker was idle")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := s.Await(ctx, j2); err != nil || v.State != StateDone {
		t.Fatalf("second job: state %s, err %v %s", v.State, err, v.Error)
	}
}
