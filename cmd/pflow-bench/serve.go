package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"perflow/internal/loadtest"
	"perflow/internal/serve"
)

// serveBench is the serve benchmark document: the job server's worker
// scaling, fairness and byte-identity measurements on this host.
type serveBench struct {
	GeneratedBy string `json:"generated_by"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Notes explain how to read the numbers on this host class.
	Notes []string `json:"notes"`
	// Speedup4x is miss-4workers over miss-1worker throughput on the
	// latency-injected store (the controlled scaling measurement).
	Speedup4x float64 `json:"speedup_4workers_vs_1worker"`
	// DiskSpeedup4x is the same pair on the real disk store — honest but
	// noisy on shared hosts.
	DiskSpeedup4x float64 `json:"disk_speedup_4workers_vs_1worker"`
	// FairnessRatio is the fairness scenario's max/median tenant p99
	// (acceptance bar: <= 3).
	FairnessRatio float64 `json:"fairness_ratio"`
	// Verified / Mismatched total the byte-identity checks across
	// scenarios; Mismatched must be 0.
	Verified   int                `json:"verified"`
	Mismatched int                `json:"mismatched"`
	Scenarios  []*loadtest.Result `json:"scenarios"`
}

// runServeBench measures the serve dispatcher end to end and writes the
// result document to path. Three experiments:
//
//  1. Worker scaling on a store with a fixed 2ms commit latency (a stand-in
//     for a shared remote store): 1 worker vs 4 workers on a pure cache-miss
//     workload, driven through the embedded API so the dispatcher — not an
//     HTTP client — is what's measured.
//  2. The same pair on the real disk store, reported as-is: on a one-core
//     host with a shared disk these numbers are device-noise bound.
//  3. Weighted-fair multi-tenant load over HTTP: three tenants with
//     weights 3/1/1 and small quotas, measuring per-tenant p99 spread and
//     429 backpressure behavior.
//
// Byte-identity sampling runs inside the scenarios: served reports are
// compared byte-for-byte against direct single-process executions.
func runServeBench(out io.Writer, path string, jobs int) error {
	doc := &serveBench{
		GeneratedBy: "pflow-bench serve",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Notes: []string{
			"speedup_4workers_vs_1worker uses a store with a fixed 2ms commit latency injected per Put (modeling a shared remote store); commit latency is the wait concurrent workers overlap, and on this host class it is the only repeatable way to measure that overlap.",
			"disk_* scenarios run against the real fsync-durable disk store and are reported unadjusted; on one-core shared hosts they are bound by device noise, not by the dispatcher.",
			"every scenario executes a pure cache-miss workload (unique programs), and sampled results are verified byte-identical to the single-process pipeline.",
		},
	}

	run := func(name string, cfg loadtest.Config) (*loadtest.Result, error) {
		fmt.Fprintf(out, "  %-16s ...", name)
		cfg.Scenario = name
		res, err := loadtest.Run(cfg)
		if err != nil {
			fmt.Fprintln(out, " FAILED")
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, " %7.1f jobs/s  (%d jobs, %d errors, fairness %.2f)\n",
			res.JobsPerSec, res.Jobs, res.Errors, res.FairnessRatio)
		doc.Scenarios = append(doc.Scenarios, res)
		doc.Verified += res.Verified
		doc.Mismatched += res.Mismatched
		return res, nil
	}

	// Experiment 1: worker scaling against commit latency.
	scaling := loadtest.Config{
		QueueDepth:   64,
		Jobs:         jobs,
		Concurrency:  16,
		Trips:        1,
		SkipLint:     true,
		StoreLatency: 2 * time.Millisecond,
		Inproc:       true,
		JobTimeout:   time.Minute,
	}
	scaling.Workers, scaling.ProgramSalt = 1, 9101
	miss1, err := run("miss-1worker", scaling)
	if err != nil {
		return err
	}
	scaling.Workers, scaling.ProgramSalt = 4, 9104
	scaling.VerifySample = 8
	miss4, err := run("miss-4workers", scaling)
	if err != nil {
		return err
	}
	if miss1.JobsPerSec > 0 {
		doc.Speedup4x = miss4.JobsPerSec / miss1.JobsPerSec
	}

	// Experiment 2: the same pair on the real durable disk store.
	diskDir, err := os.MkdirTemp("", "pflow-bench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	disk := scaling
	disk.StoreLatency, disk.VerifySample = 0, 0
	disk.Store = "disk:" + diskDir + "/s1"
	disk.Workers, disk.ProgramSalt = 1, 9201
	disk1, err := run("disk-1worker", disk)
	if err != nil {
		return err
	}
	disk.Store = "disk:" + diskDir + "/s4"
	disk.Workers, disk.ProgramSalt = 4, 9204
	disk4, err := run("disk-4workers", disk)
	if err != nil {
		return err
	}
	if disk1.JobsPerSec > 0 {
		doc.DiskSpeedup4x = disk4.JobsPerSec / disk1.JobsPerSec
	}

	// Experiment 3: weighted-fair multi-tenant load over HTTP.
	fair, err := run("fairness", loadtest.Config{
		Workers:    4,
		QueueDepth: 64,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", Key: "bench-alpha", Quota: 24, Weight: 3},
			{Name: "beta", Key: "bench-beta", Quota: 24, Weight: 1},
			{Name: "gamma", Key: "bench-gamma", Quota: 24, Weight: 1},
		},
		Jobs:         jobs,
		Concurrency:  6,
		Trips:        8,
		ProgramSalt:  9301,
		VerifySample: 12,
		JobTimeout:   time.Minute,
	})
	if err != nil {
		return err
	}
	doc.FairnessRatio = fair.FairnessRatio

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  speedup 4-worker/1-worker: %.2fx (disk: %.2fx), fairness %.2f, verified %d, mismatched %d\n",
		doc.Speedup4x, doc.DiskSpeedup4x, doc.FairnessRatio, doc.Verified, doc.Mismatched)
	fmt.Fprintf(out, "  wrote %s\n", path)
	return nil
}
