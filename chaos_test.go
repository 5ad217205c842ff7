package perflow_test

// Chaos determinism matrix: the whole degraded pipeline — fault injection,
// stall truncation, partial PAG construction, data-quality tagging, report
// rendering — must be byte-deterministic for a fixed seed, across repeated
// runs and across PAG-construction worker counts. CI runs this under -race
// with several seeds; PFLOW_CHAOS_SEED adds an extra operator-chosen one.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"perflow"
)

// chaosSeeds are the fixed seeds CI pins; nondeterminism at any of them
// fails the suite.
var chaosSeeds = []int64{1, 7, 42}

// chaosReport runs the full pipeline (collect with faults + profile,
// hotspot and engine-backed comm analyses) and returns the rendered report
// bytes.
func chaosReport(t *testing.T, seed int64, parallelism int) []byte {
	t.Helper()
	plan, err := perflow.ParseFaultPlan(fmt.Sprintf(
		"seed=%d;crash:rank=3,at=900;drop:rank=1,prob=0.4;slow:rank=2,factor=3", seed))
	if err != nil {
		t.Fatal(err)
	}
	pf := perflow.New()
	res, err := pf.RunWorkload("cg", perflow.RunOptions{
		Ranks:            8,
		SkipParallelView: true,
		Parallelism:      parallelism,
		Faults:           plan,
	})
	if err != nil {
		t.Fatalf("seed %d: degraded run must not fail: %v", seed, err)
	}
	if res.Coverage == nil || !res.Coverage.Degraded() {
		t.Fatalf("seed %d: fault plan produced no degradation", seed)
	}
	var report bytes.Buffer
	for _, analysis := range []string{"profile", "hotspot", "comm"} {
		if _, err := pf.AnalyzeCtx(context.Background(), res, nil, analysis, 10, &report); err != nil {
			t.Fatalf("seed %d: analyze %s: %v", seed, analysis, err)
		}
	}
	return report.Bytes()
}

func TestChaosDeterminism(t *testing.T) {
	seeds := chaosSeeds
	if env := os.Getenv("PFLOW_CHAOS_SEED"); env != "" {
		extra, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PFLOW_CHAOS_SEED=%q: %v", env, err)
		}
		seeds = append(append([]int64(nil), seeds...), extra)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			base := chaosReport(t, seed, 1)
			for _, par := range []int{1, 8} {
				for run := 0; run < 2; run++ {
					got := chaosReport(t, seed, par)
					if !bytes.Equal(base, got) {
						t.Fatalf("seed %d: report differs (parallelism %d, run %d)\n--- base ---\n%s\n--- got ---\n%s",
							seed, par, run, base, got)
					}
				}
			}
		})
	}
}

// TestChaosSeedsDiffer guards against the fault machinery ignoring the
// seed: different seeds must perturb the probabilistic drops and so the
// degraded reports.
func TestChaosSeedsDiffer(t *testing.T) {
	if bytes.Equal(chaosReport(t, 1, 1), chaosReport(t, 7, 1)) {
		t.Error("reports identical across seeds; drop hashing is not seeded")
	}
}
