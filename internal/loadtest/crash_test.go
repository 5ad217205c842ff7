package loadtest

import (
	"fmt"
	"testing"
)

// TestCrashRestart is the acceptance gate for the crash-safety contract:
// ten consecutive seeded kill/restart cycles, each asserting no
// acknowledged job lost, no observable duplicate execution, and
// byte-identical post-restart results.
func TestCrashRestart(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunCrash(CrashConfig{
				Seed:       seed,
				StoreDir:   t.TempDir(),
				JournalDir: t.TempDir(),
				Jobs:       24, KillAfterDone: 6,
				Workers: 4, QueueDepth: 64,
				VerifySample: 4,
			})
			if err != nil {
				t.Fatalf("crash run: %v (result %+v)", err, res)
			}
			if res.AckedBeforeKill == 0 {
				t.Fatal("no job was acknowledged before the kill — the scenario exercised nothing")
			}
			if res.LostAcked != 0 {
				t.Errorf("%d acknowledged jobs lost across the crash (result %+v)", res.LostAcked, res)
			}
			if res.DupVisible != 0 {
				t.Errorf("%d observed-done jobs re-executed after restart (result %+v)", res.DupVisible, res)
			}
			if res.Mismatched != 0 {
				t.Errorf("%d post-restart results diverged from the direct pipeline", res.Mismatched)
			}
			if res.Verified == 0 {
				t.Error("byte-identity sample verified nothing")
			}
			t.Logf("seed %d: %+v", seed, res)
		})
	}
}

// TestCrashRestartUnderChaos runs the kill/restart cycle with the
// fault-injecting store (I/O errors and torn writes) active in both
// incarnations: the circuit breaker and CRC envelope must keep every
// surviving job correct — re-execution after a torn cache write is legal,
// wrong bytes never are.
func TestCrashRestartUnderChaos(t *testing.T) {
	res, err := RunCrash(CrashConfig{
		Seed:       42,
		StoreDir:   t.TempDir(),
		JournalDir: t.TempDir(),
		Jobs:       24, KillAfterDone: 6,
		Workers: 4, QueueDepth: 64,
		ChaosErr: 0.05, ChaosTorn: 0.01,
		VerifySample: 4,
	})
	if err != nil {
		t.Fatalf("chaos crash run: %v (result %+v)", err, res)
	}
	if res.Mismatched != 0 {
		t.Errorf("%d results diverged under chaos — corruption served", res.Mismatched)
	}
	t.Logf("chaos: %+v", res)
}

// TestChaosStoreSuccessRate drives a full load scenario through a store
// injecting 5% I/O faults and requires >= 99.9% job success: the breaker
// and fallback must absorb backend trouble instead of failing jobs.
func TestChaosStoreSuccessRate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const jobs = 300
	res, err := Run(Config{
		Scenario: "chaos-success",
		Store:    "chaos:seed=7,err=0.05:memory",
		Workers:  4, QueueDepth: 64,
		Jobs: jobs, Concurrency: 4, Trips: 1,
		SkipLint: true,
		Inproc:   true,
	})
	if res == nil {
		t.Fatalf("run: %v", err)
	}
	failed := res.Errors
	rate := float64(jobs-failed) / float64(jobs)
	if rate < 0.999 {
		t.Fatalf("success rate %.4f under 5%% store faults, want >= 0.999 (errors: %d, first: %v)", rate, failed, err)
	}
	t.Logf("chaos store success rate %.4f (%d/%d), retries429=%d", rate, jobs-failed, jobs, res.Retries429)
}
