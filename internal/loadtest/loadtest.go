// Package loadtest drives a serve.Server the way a fleet of tenant
// clients would — concurrent submit/poll loops over unique programs — and
// measures what the dispatcher is supposed to deliver: throughput that
// scales with workers, per-tenant latency fairness under weighted-fair
// dequeue, and results byte-identical to the single-process pipeline.
//
// It is both the CI smoke gate (TestLoadSmoke) and the generator behind
// BENCH_PR9.json (`pflow-bench serve`).
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perflow"
	"perflow/internal/serve"
	"perflow/internal/serve/store"
)

// Config parameterizes one load scenario.
type Config struct {
	// Scenario names the run in reports.
	Scenario string
	// Workers / QueueDepth mirror serve.Options: total workers and total
	// backlog bound.
	Workers    int
	QueueDepth int
	// Store is a store spec ("memory" or "disk:<dir>"); empty means memory.
	Store string
	// Tenants declares the driving tenants; empty runs one anonymous
	// client pool.
	Tenants []serve.TenantConfig
	// Jobs is the total number of unique jobs across all tenants.
	Jobs int
	// Concurrency is the number of client goroutines per tenant.
	Concurrency int
	// Trips sizes each generated program's main loop (simulation cost
	// scales with op count).
	Trips int
	// ProgramSalt offsets program generation so two scenarios never share
	// content addresses (a shared disk store would otherwise serve the
	// second scenario from the first's cache).
	ProgramSalt int
	// SkipLint sets SkipLint on every generated request, dropping the
	// in-run diagnostics pass (the synchronous submit-time lint gate still
	// runs). The worker-scaling scenarios use it to keep per-job CPU small
	// relative to the store's device time — the part workers can overlap.
	SkipLint bool
	// StoreLatency injects a fixed device-commit latency into every store
	// Put, modeling a shared remote store (NFS, object storage). The
	// worker-scaling scenarios use it because commit latency is exactly what
	// concurrent workers overlap, and a local disk's fsync time is
	// too noisy on shared hosts to measure that overlap repeatably.
	StoreLatency time.Duration
	// VerifySample is how many finished jobs to re-execute through the
	// in-process pipeline and compare byte-for-byte (0 disables).
	VerifySample int
	// JobTimeout caps one job (default 60s).
	JobTimeout time.Duration
	// Inproc drives the server through its embedded Submit/Await API
	// instead of HTTP. This measures the dispatcher and store themselves —
	// the subsystem under test — without per-request HTTP client
	// cost, which on a small host otherwise dominates the profile.
	Inproc bool
}

// TenantResult is one tenant's latency profile.
type TenantResult struct {
	Tenant     string  `json:"tenant"`
	Jobs       int     `json:"jobs"`
	Retries429 int     `json:"retries_429"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// Result is one scenario's measurements.
type Result struct {
	Scenario    string  `json:"scenario"`
	Workers     int     `json:"workers"`
	Store       string  `json:"store"`
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// StoreLatencyMS is the injected per-Put commit latency (0 = none).
	StoreLatencyMS float64        `json:"store_latency_ms,omitempty"`
	Errors         int            `json:"errors"`
	Retries429     int            `json:"retries_429"`
	Tenants        []TenantResult `json:"tenants"`
	// FairnessRatio is max tenant p99 over median tenant p99; 1.0 is
	// perfectly fair, and the acceptance bar is <= 3.
	FairnessRatio float64 `json:"fairness_ratio"`
	// Verified counts jobs whose served report was byte-identical to a
	// direct in-process execution; Mismatched counts divergences (must be
	// 0).
	Verified   int `json:"verified"`
	Mismatched int `json:"mismatched"`
}

// program builds the i-th unique benchmark program: tiny simulation cost
// (the dispatcher, not the engine, is under test) with a distinct cost
// constant so every job has a distinct content address.
func program(salt, i, trips int) string {
	if trips <= 1 {
		// Minimal shape for the worker-scaling scenarios: a single compute
		// statement keeps parse/lint/simulate CPU — serialized on one core —
		// small next to the store's device time, which is what workers
		// overlap.
		return fmt.Sprintf(`program load%d_%d
func main file load.c line 1
  compute work line 2 cost %d
end
`, salt, i, 10+i)
	}
	return fmt.Sprintf(`program load%d_%d
func main file load.c line 1
  loop l line 2 trips %d comm-per-iter
    compute work line 3 cost %d
    mpi allreduce line 4 bytes 8
  end
end
`, salt, i, trips, 10+i)
}

func request(cfg Config, i int) serve.SubmitRequest {
	req := serve.SubmitRequest{}
	req.DSL = program(cfg.ProgramSalt, i, cfg.Trips)
	req.Analysis = "profile"
	req.Ranks = 2
	req.SkipLint = cfg.SkipLint
	return req
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Trips <= 0 {
		c.Trips = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	return c
}

// Run executes one scenario end to end and tears the server down.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	st, err := store.Open(cfg.Store, 256<<20)
	if err != nil {
		return nil, err
	}
	if cfg.StoreLatency > 0 {
		st = &latencyStore{Store: st, d: cfg.StoreLatency}
	}
	srv, err := serve.NewServer(serve.Options{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Store:      st,
		Tenants:    cfg.Tenants,
		JobTimeout: cfg.JobTimeout,
		// Retain every job of the run so the verify pass can read results.
		MaxJobHistory: 2*cfg.Jobs + 16,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		srv.Drain(ctx)
	}()

	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []serve.TenantConfig{{Name: "default"}}
	}

	var (
		mu      sync.Mutex
		samples []jobSample
		errs    []error
		retries = map[string]int{}
	)
	var next atomic.Int64
	client := &http.Client{Timeout: cfg.JobTimeout + 10*time.Second}

	started := time.Now()
	var wg sync.WaitGroup
	for _, tc := range tenants {
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(tc serve.TenantConfig) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= cfg.Jobs {
						return
					}
					var (
						s   jobSample
						r   int
						err error
					)
					if cfg.Inproc {
						s, r, err = runOneInproc(srv, tc.Name, cfg, i)
					} else {
						s, r, err = runOne(client, ts.URL, tc.Key, cfg, i)
					}
					mu.Lock()
					retries[tc.Name] += r
					if err != nil {
						errs = append(errs, fmt.Errorf("tenant %s job %d: %w", tc.Name, i, err))
					} else {
						s.tenant = tc.Name
						samples = append(samples, s)
					}
					mu.Unlock()
				}
			}(tc)
		}
	}
	wg.Wait()
	elapsed := time.Since(started)

	res := &Result{
		Scenario:       cfg.Scenario,
		Workers:        cfg.Workers,
		Store:          storeName(cfg.Store),
		Jobs:           cfg.Jobs,
		Concurrency:    cfg.Concurrency,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
		StoreLatencyMS: ms(cfg.StoreLatency),
		Errors:         len(errs),
	}
	if elapsed > 0 {
		res.JobsPerSec = float64(len(samples)) / elapsed.Seconds()
	}

	// Per-tenant latency percentiles and the fairness ratio.
	byTenant := map[string][]time.Duration{}
	for _, s := range samples {
		byTenant[s.tenant] = append(byTenant[s.tenant], s.latency)
	}
	var p99s []float64
	for _, tc := range tenants {
		lats := byTenant[tc.Name]
		tr := TenantResult{Tenant: tc.Name, Jobs: len(lats), Retries429: retries[tc.Name]}
		res.Retries429 += retries[tc.Name]
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			tr.P50MS = ms(percentile(lats, 0.50))
			tr.P90MS = ms(percentile(lats, 0.90))
			tr.P99MS = ms(percentile(lats, 0.99))
			tr.MaxMS = ms(lats[len(lats)-1])
			p99s = append(p99s, tr.P99MS)
		}
		res.Tenants = append(res.Tenants, tr)
	}
	if len(p99s) > 0 {
		sort.Float64s(p99s)
		median := p99s[len(p99s)/2]
		if median > 0 {
			res.FairnessRatio = p99s[len(p99s)-1] / median
		}
	}

	// Byte-identity: re-execute a sample of the served jobs through the
	// same in-process pipeline the CLI uses and compare report bytes.
	if cfg.VerifySample > 0 && len(samples) > 0 {
		step := len(samples) / cfg.VerifySample
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(samples) && res.Verified+res.Mismatched < cfg.VerifySample; i += step {
			s := samples[i]
			req := request(cfg, s.progIdx)
			var direct bytes.Buffer
			if _, err := perflow.New().ExecuteRequest(context.Background(), req.AnalysisRequest, &direct); err != nil {
				errs = append(errs, fmt.Errorf("verify job %s: %w", s.jobID, err))
				res.Errors++
				continue
			}
			if s.report == direct.String() {
				res.Verified++
			} else {
				res.Mismatched++
			}
		}
	}
	if len(errs) > 0 {
		return res, fmt.Errorf("%d errors, first: %w", len(errs), errs[0])
	}
	return res, nil
}

// latencyStore injects a fixed commit latency into Put, standing in for a
// shared remote store. Only Put sleeps: commit latency is the wait
// concurrent workers overlap, while read misses must stay cheap for the submit path.
type latencyStore struct {
	store.Store
	d time.Duration
}

func (l *latencyStore) Put(key string, val []byte) error {
	time.Sleep(l.d)
	return l.Store.Put(key, val)
}

func storeName(spec string) string {
	if spec == "" {
		return "memory"
	}
	return spec
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// percentile reads the p-quantile of an ascending latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// jobSample is one completed job's measurement. report holds the served
// report bytes for the byte-identity pass.
type jobSample struct {
	tenant  string
	jobID   string
	progIdx int
	latency time.Duration
	report  string
}

// runOne submits job i and polls it to done, retrying 429 backpressure
// with a short backoff. It returns the submit-to-done latency.
func runOne(client *http.Client, base, key string, cfg Config, i int) (s jobSample, retries429 int, err error) {
	req := request(cfg, i)
	body, err := json.Marshal(req)
	if err != nil {
		return s, 0, err
	}
	start := time.Now()
	var id string
	for attempt := 0; ; attempt++ {
		status, data, err := do(client, http.MethodPost, base+"/v1/jobs", key, body)
		if err != nil {
			return s, retries429, err
		}
		if status == http.StatusTooManyRequests {
			retries429++
			if attempt > 10000 {
				return s, retries429, fmt.Errorf("starved: still 429 after %d attempts", attempt)
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if status != http.StatusAccepted && status != http.StatusOK {
			return s, retries429, fmt.Errorf("submit: status %d: %s", status, data)
		}
		var v struct {
			ID     string          `json:"id"`
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return s, retries429, err
		}
		id = v.ID
		if v.State == "done" { // cache hit
			s.jobID, s.progIdx, s.latency = id, i, time.Since(start)
			s.report = reportOf(v.Result)
			return s, retries429, nil
		}
		break
	}
	deadline := time.Now().Add(cfg.JobTimeout + 30*time.Second)
	for {
		status, data, err := do(client, http.MethodGet, base+"/v1/jobs/"+id, key, nil)
		if err != nil {
			return s, retries429, err
		}
		if status != http.StatusOK {
			return s, retries429, fmt.Errorf("poll %s: status %d: %s", id, status, data)
		}
		var v struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return s, retries429, err
		}
		switch v.State {
		case "done":
			s.jobID, s.progIdx, s.latency = id, i, time.Since(start)
			s.report = reportOf(v.Result)
			return s, retries429, nil
		case "failed", "canceled":
			return s, retries429, fmt.Errorf("job %s terminal %s: %s", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			return s, retries429, fmt.Errorf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// runOneInproc is runOne over the embedded Submit/Await API: same retry
// discipline on backpressure, no HTTP client or JSON wire cost in the
// measured path.
func runOneInproc(srv *serve.Server, tenant string, cfg Config, i int) (s jobSample, retries429 int, err error) {
	req := request(cfg, i)
	start := time.Now()
	var job *serve.Job
	for attempt := 0; ; attempt++ {
		job, err = srv.Submit(req, tenant)
		if err == nil {
			break
		}
		if errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrQuotaExceeded) {
			retries429++
			if attempt > 10000 {
				return s, retries429, fmt.Errorf("starved: still backpressured after %d attempts", attempt)
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return s, retries429, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.JobTimeout+30*time.Second)
	defer cancel()
	view, err := srv.Await(ctx, job)
	if err != nil {
		return s, retries429, err
	}
	if view.State != serve.StateDone {
		return s, retries429, fmt.Errorf("job %s terminal %s: %s", view.ID, view.State, view.Error)
	}
	s.jobID, s.progIdx, s.latency = view.ID, i, time.Since(start)
	s.report = reportOf(view.Result)
	return s, retries429, nil
}

// reportOf pulls the report text out of a job's result envelope.
func reportOf(result json.RawMessage) string {
	var v struct {
		Report string `json:"report"`
	}
	if len(result) > 0 {
		json.Unmarshal(result, &v)
	}
	return v.Report
}

func do(client *http.Client, method, url, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}
