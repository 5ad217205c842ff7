package loadtest

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"perflow"
	"perflow/internal/serve"
	"perflow/internal/serve/store"
)

// The crash-restart harness: phase one drives a journaled server under
// load and kills it abruptly (serve.Server.Kill — the simulated SIGKILL:
// journal frozen, no store close, no graceful drain), phase two restarts a
// server over the same journal and store directories and checks the
// crash-safety contract end to end:
//
//   - no acknowledged job is lost: every submission acked before the kill
//     either completed with a durable terminal record or is replayed and
//     completed by the restarted server;
//   - nothing runs twice observably: a job whose completion the client
//     observed before the kill is never re-executed by the restarted
//     server (its result is served from the content-addressed cache);
//   - results survive the crash byte-identical: a sample of post-restart
//     results is compared against the direct in-process pipeline.

// CrashConfig parameterizes one crash-restart scenario.
type CrashConfig struct {
	// Seed salts program generation so runs never share content addresses,
	// and seeds the chaos store when fault injection is on.
	Seed int64
	// StoreDir / JournalDir are the durable directories both server
	// incarnations share.
	StoreDir   string
	JournalDir string
	// Jobs is the number of unique jobs submitted before/while the kill.
	Jobs int
	// KillAfterDone triggers the kill once this many jobs were observed
	// done by the client (must be < Jobs so work is in flight).
	KillAfterDone int
	// Workers / QueueDepth mirror serve.Options.
	Workers    int
	QueueDepth int
	// ChaosErr / ChaosTorn enable the fault-injecting store wrapper for
	// both incarnations (0 = clean disk store). With torn writes enabled
	// the nothing-runs-twice assertion is relaxed: a torn cache write is
	// indistinguishable from a missing one, so re-execution is legal.
	ChaosErr  float64
	ChaosTorn float64
	// VerifySample is how many post-restart results to compare
	// byte-for-byte against the direct pipeline (0 disables).
	VerifySample int
}

// CrashResult reports one crash-restart run.
type CrashResult struct {
	// AckedBeforeKill counts submissions acknowledged by the first server.
	AckedBeforeKill int `json:"acked_before_kill"`
	// DoneBeforeKill counts jobs the client observed done before the kill
	// started — each has a durable terminal record by construction.
	DoneBeforeKill int `json:"done_before_kill"`
	// Recovered counts jobs the restarted server re-enqueued from the
	// journal; CacheCompleted counts replayed jobs completed straight from
	// the cache (the crash landed between the cache write and the
	// journal's terminal record).
	Recovered      int `json:"recovered"`
	CacheCompleted int `json:"cache_completed"`
	// LostAcked counts acknowledged jobs with no outcome after recovery —
	// the headline invariant, must be 0.
	LostAcked int `json:"lost_acked"`
	// DupVisible counts observed-done jobs the restarted server
	// re-executed — observable duplicate execution, must be 0 without torn
	// faults.
	DupVisible int `json:"dup_visible"`
	// Verified / Mismatched are the byte-identity sample counts.
	Verified   int `json:"verified"`
	Mismatched int `json:"mismatched"`
}

func (c CrashConfig) withDefaults() CrashConfig {
	if c.Jobs <= 0 {
		c.Jobs = 24
	}
	if c.KillAfterDone <= 0 {
		c.KillAfterDone = c.Jobs / 4
	}
	if c.KillAfterDone >= c.Jobs {
		c.KillAfterDone = c.Jobs - 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// storeSpec builds the store spec both incarnations open: the disk store,
// optionally behind the deterministic fault injector.
func (c CrashConfig) storeSpec() string {
	spec := "disk:" + c.StoreDir
	if c.ChaosErr > 0 || c.ChaosTorn > 0 {
		spec = fmt.Sprintf("chaos:seed=%d,err=%g,torn=%g:%s", c.Seed, c.ChaosErr, c.ChaosTorn, spec)
	}
	return spec
}

func (c CrashConfig) request(i int) serve.SubmitRequest {
	req := serve.SubmitRequest{}
	req.DSL = program(int(c.Seed), i, 4)
	req.Analysis = "profile"
	req.Ranks = 2
	return req
}

// RunCrash executes one crash-restart scenario.
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	cfg = cfg.withDefaults()
	res := &CrashResult{}

	// ---- Phase 1: load, then kill mid-flight. ----
	stA, err := store.Open(cfg.storeSpec(), 64<<20)
	if err != nil {
		return nil, err
	}
	srvA, err := serve.NewServer(serve.Options{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth,
		Store: stA, JournalDir: cfg.JournalDir,
		MaxJobHistory: 2*cfg.Jobs + 16,
	})
	if err != nil {
		return nil, err
	}

	type ackedJob struct {
		key string
		idx int
	}
	var (
		mu          sync.Mutex
		acked       = map[string]ackedJob{} // job ID -> identity
		preKillDone = map[string]bool{}     // job IDs observed done before the kill
		killStarted bool
	)
	killCh := make(chan struct{})
	var killOnce sync.Once
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()

	var doneCount atomic.Int64
	var watchers sync.WaitGroup
	var submitters sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 4; w++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Jobs {
					return
				}
				job, err := srvA.Submit(cfg.request(i), "")
				if err != nil {
					// Draining (killed) or backpressure: either way the job
					// was never acknowledged, so it is out of scope.
					continue
				}
				mu.Lock()
				acked[job.ID] = ackedJob{key: job.Key, idx: i}
				mu.Unlock()
				watchers.Add(1)
				go func(j *serve.Job) {
					defer watchers.Done()
					v, err := srvA.Await(watchCtx, j)
					if err != nil || v.State != serve.StateDone {
						return
					}
					// Recording is gated on the kill flag under the same
					// mutex the killer sets it with: a done recorded here
					// strictly precedes the journal freeze, so its terminal
					// record (written before the job's done channel closed)
					// is durable.
					mu.Lock()
					if !killStarted {
						preKillDone[j.ID] = true
					}
					mu.Unlock()
					if doneCount.Add(1) == int64(cfg.KillAfterDone) {
						killOnce.Do(func() { close(killCh) })
					}
				}(job)
			}
		}()
	}

	<-killCh
	mu.Lock()
	killStarted = true
	mu.Unlock()
	srvA.Kill()
	watchCancel()
	submitters.Wait()
	watchers.Wait()

	mu.Lock()
	res.AckedBeforeKill = len(acked)
	res.DoneBeforeKill = len(preKillDone)
	mu.Unlock()

	// ---- Phase 2: restart over the same directories. ----
	stB, err := store.Open(cfg.storeSpec(), 64<<20)
	if err != nil {
		return nil, err
	}
	executedInB := &sync.Map{} // key -> true
	srvB, err := serve.NewServer(serve.Options{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth,
		Store: stB, JournalDir: cfg.JournalDir,
		MaxJobHistory: 4*cfg.Jobs + 16,
		OnExecute:     func(jobID, key string) { executedInB.Store(key, true) },
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srvB.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		srvB.Drain(ctx)
	}()

	recovered := srvB.RecoveredJobs()
	res.Recovered = len(recovered)
	awaitCtx, awaitCancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer awaitCancel()
	for _, j := range recovered {
		v, err := srvB.Await(awaitCtx, j)
		if err != nil {
			return res, fmt.Errorf("await recovered job %s: %w", j.ID, err)
		}
		if v.State != serve.StateDone {
			return res, fmt.Errorf("recovered job %s finished %s (%s), want done", j.ID, v.State, v.Error)
		}
	}

	// Account for every acknowledged job. Jobs the restarted server knows
	// (replayed, or completed from the cache at startup) have a live
	// outcome; jobs it answers 404 for must have completed durably in the
	// first process — verified by resubmitting the identical request, which
	// must then hit the content-addressed cache.
	client := &http.Client{Timeout: 30 * time.Second}
	recoveredIDs := map[string]bool{}
	for _, j := range recovered {
		recoveredIDs[j.ID] = true
	}
	mu.Lock()
	ackedCopy := make(map[string]ackedJob, len(acked))
	for id, aj := range acked {
		ackedCopy[id] = aj
	}
	preKillCopy := make(map[string]bool, len(preKillDone))
	for id := range preKillDone {
		preKillCopy[id] = true
	}
	mu.Unlock()

	for id, aj := range ackedCopy {
		status, _, err := do(client, http.MethodGet, ts.URL+"/v1/jobs/"+id, "", nil)
		if err != nil {
			return res, err
		}
		switch status {
		case http.StatusOK:
			if !recoveredIDs[id] {
				res.CacheCompleted++
			}
		case http.StatusNotFound:
			// The restarted server never saw the job: its terminal record
			// must have been durable before the kill. A done job left its
			// result in the content-addressed store, so the identical
			// request is a cache hit; anything else is a lost ack. Torn
			// writes can legally destroy the cached value, so the check
			// only binds without them.
			if preKillCopy[id] || cfg.ChaosTorn > 0 {
				continue
			}
			job, err := srvB.Submit(cfg.request(aj.idx), "")
			if err != nil {
				return res, fmt.Errorf("resubmit for acked job %s: %w", id, err)
			}
			v, err := srvB.Await(awaitCtx, job)
			if err != nil || v.State != serve.StateDone {
				return res, fmt.Errorf("resubmit for acked job %s: %v / %+v", id, err, v)
			}
			if !v.Cached {
				res.LostAcked++
			}
		default:
			return res, fmt.Errorf("GET job %s after restart: status %d", id, status)
		}
	}

	// Observed-done jobs must not have re-executed: their results were
	// durable in the store before the kill, so the restarted server serves
	// them from the cache. Torn-write chaos voids this (a torn value reads
	// as a miss and legal re-execution).
	if cfg.ChaosTorn == 0 {
		for id := range preKillCopy {
			if _, ran := executedInB.Load(ackedCopy[id].key); ran {
				res.DupVisible++
			}
		}
	}

	// Byte-identity: resubmit a sample of acked jobs and compare the served
	// report against the direct in-process pipeline.
	if cfg.VerifySample > 0 {
		verified := 0
		for _, aj := range ackedCopy {
			if verified >= cfg.VerifySample {
				break
			}
			req := cfg.request(aj.idx)
			job, err := srvB.Submit(req, "")
			if err != nil {
				return res, fmt.Errorf("verify submit: %w", err)
			}
			v, err := srvB.Await(awaitCtx, job)
			if err != nil || v.State != serve.StateDone {
				return res, fmt.Errorf("verify job: %v / %+v", err, v)
			}
			var direct bytes.Buffer
			if _, err := perflow.New().ExecuteRequest(context.Background(), req.AnalysisRequest, &direct); err != nil {
				return res, fmt.Errorf("verify direct execution: %w", err)
			}
			if reportOf(v.Result) == direct.String() {
				res.Verified++
			} else {
				res.Mismatched++
			}
			verified++
		}
	}
	return res, nil
}
