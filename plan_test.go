package perflow_test

// Scheduling-equivalence matrix: how an analysis is scheduled must never
// change its results. Every engine-backed analysis over the workload corpus
// renders a byte-identical report at every PAG-construction worker count
// (-j), with passes running concurrently on the engine's worker pool.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"perflow"
)

// planReport executes one canonical request and returns the report bytes.
func planReport(t *testing.T, req perflow.AnalysisRequest) []byte {
	t.Helper()
	var report bytes.Buffer
	pf := perflow.New()
	pf.Out = &report
	if _, err := pf.ExecuteRequest(context.Background(), req, &report); err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return report.Bytes()
}

func TestPlanEquivalenceWorkloadCorpus(t *testing.T) {
	type tc struct {
		analysis string
		ranks    int
		ranks2   int
	}
	cases := []tc{
		{analysis: "comm", ranks: 8},
		{analysis: "critical", ranks: 8},
		{analysis: "scalability", ranks: 4, ranks2: 8},
	}
	for _, workload := range perflow.Workloads() {
		for _, c := range cases {
			workload, c := workload, c
			t.Run(fmt.Sprintf("%s_%s_r%d", workload, c.analysis, c.ranks), func(t *testing.T) {
				t.Parallel()
				req := perflow.AnalysisRequest{
					Workload: workload,
					Analysis: c.analysis,
					Ranks:    c.ranks,
					Ranks2:   c.ranks2,
				}
				base := planReport(t, req)
				for _, par := range []int{1, 8} {
					r := req
					r.Parallelism = par
					if got := planReport(t, r); !bytes.Equal(base, got) {
						t.Fatalf("report differs (-j %d)\n--- base ---\n%s\n--- got ---\n%s",
							par, base, got)
					}
				}
			})
		}
	}
}

// TestPlanNeutralCacheKey pins the wire contract that the deprecated,
// ignored NoPlan field and the result-neutral Parallelism stay out of the
// request cache key: a served job answered from cache must hit regardless
// of either setting.
func TestPlanNeutralCacheKey(t *testing.T) {
	req := perflow.AnalysisRequest{Workload: "cg", Analysis: "comm", Ranks: 8}
	base := req.CacheKey()
	req.NoPlan = true
	if req.CacheKey() != base {
		t.Error("NoPlan changed the cache key; the field is ignored")
	}
	req.Parallelism = 7
	if req.CacheKey() != base {
		t.Error("Parallelism changed the cache key")
	}
}
