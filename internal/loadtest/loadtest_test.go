package loadtest

import (
	"testing"
	"time"

	"perflow/internal/serve"
)

// TestLoadSmoke is the CI load gate: 200 jobs across 4 workers on the
// memory store, multi-tenant, with zero tolerated errors and a sampled
// byte-identity check against the single-process pipeline. It runs under
// -race in the load-smoke CI stage.
func TestLoadSmoke(t *testing.T) {
	res, err := Run(Config{
		Scenario:   "ci-smoke",
		Workers:    4,
		QueueDepth: 64,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", Key: "key-alpha", Quota: 32, Weight: 2},
			{Name: "beta", Key: "key-beta", Quota: 32, Weight: 1},
		},
		Jobs:         200,
		Concurrency:  4,
		Trips:        8,
		VerifySample: 8,
		JobTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	t.Logf("smoke: %d jobs in %.0fms (%.1f jobs/s), %d retries, fairness %.2f, verified %d",
		res.Jobs, res.ElapsedMS, res.JobsPerSec, res.Retries429, res.FairnessRatio, res.Verified)
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if res.Mismatched != 0 {
		t.Fatalf("served results diverged from the in-process pipeline: %d mismatches", res.Mismatched)
	}
	if res.Verified == 0 {
		t.Fatal("byte-identity verification never ran")
	}
	for _, tr := range res.Tenants {
		if tr.Jobs == 0 {
			t.Errorf("tenant %s completed no jobs", tr.Tenant)
		}
	}
}

// TestLoadDiskStore smoke-checks the disk store under concurrent load:
// durable writes from many workers, then a second pass over the same
// programs that must be served entirely from the shared cache.
func TestLoadDiskStore(t *testing.T) {
	if testing.Short() {
		t.Skip("disk load test")
	}
	dir := t.TempDir()
	first, err := Run(Config{
		Scenario:    "disk-miss",
		Workers:     4,
		QueueDepth:  64,
		Store:       "disk:" + dir,
		Jobs:        60,
		Concurrency: 4,
		Trips:       8,
		ProgramSalt: 7,
	})
	if err != nil {
		t.Fatalf("miss pass: %v", err)
	}
	// Same programs, fresh server over the same directory: every job is a
	// cache hit adopted from the files the first server persisted.
	second, err := Run(Config{
		Scenario:    "disk-hit",
		Workers:     4,
		QueueDepth:  64,
		Store:       "disk:" + dir,
		Jobs:        60,
		Concurrency: 4,
		Trips:       8,
		ProgramSalt: 7,
	})
	if err != nil {
		t.Fatalf("hit pass: %v", err)
	}
	if second.Errors != 0 || first.Errors != 0 {
		t.Fatalf("errors: miss=%d hit=%d", first.Errors, second.Errors)
	}
	if second.JobsPerSec < first.JobsPerSec {
		t.Errorf("cached pass slower than cold pass: %.1f vs %.1f jobs/s", second.JobsPerSec, first.JobsPerSec)
	}
	t.Logf("disk: cold %.1f jobs/s, cached %.1f jobs/s", first.JobsPerSec, second.JobsPerSec)
}
