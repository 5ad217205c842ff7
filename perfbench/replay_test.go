package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"perflow"
)

// The traced replay must write the report ExecuteRequest writes, for every
// analysis the workloads use; otherwise its spans describe some other
// program than the one the untraced runs time.
func TestReplayMatchesExecuteRequest(t *testing.T) {
	want, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var twoRuns perflow.AnalysisRequest
	for twoRuns.Ranks2 == 0 {
		twoRuns = serveRequest(rng, 0)
	}
	cases := []entry{
		{"cg@8/profile", perflow.AnalysisRequest{Workload: "cg", Ranks: 8, Analysis: "profile"}},
		{"cg@8/comm", perflow.AnalysisRequest{Workload: "cg", Ranks: 8, Analysis: "comm"}},
		{"ep@8/critical", perflow.AnalysisRequest{Workload: "ep", Ranks: 8, Analysis: "critical"}},
		{"ep@8-64/scalability", perflow.AnalysisRequest{Workload: "ep", Ranks: 8, Ranks2: 64, Analysis: "scalability"}},
		{"vite@8x4/contention", perflow.AnalysisRequest{Workload: "vite", Ranks: 8, Threads: 4, Analysis: "contention"}},
		{"generated two-run request with a policy", twoRuns},
	}
	for op, c := range cases {
		_, untraced, err := execute(c.Req)
		if err != nil {
			t.Fatalf("%s: ExecuteRequest: %v", c.Name, err)
		}
		if d, ok := want[c.Name]; ok && digest(untraced) != d {
			t.Errorf("%s: ExecuteRequest report does not match the digest manifest", c.Name)
		}
		rec := newRecorder()
		var traced bytes.Buffer
		if err := replayRequest(context.Background(), rec, op, c.Req, &traced); err != nil {
			t.Fatalf("%s: replay: %v", c.Name, err)
		}
		if digest(traced.Bytes()) != digest(untraced) {
			t.Errorf("%s: replayed report differs from ExecuteRequest's:\n--- replay\n%s\n--- ExecuteRequest\n%s", c.Name, traced.Bytes(), untraced)
		}
		names := map[string]bool{}
		for _, s := range rec.snapshot() {
			names[s.Name] = true
			if s.End < s.Start {
				t.Errorf("%s: span %s ends before it starts", c.Name, s.Name)
			}
		}
		for _, n := range []string{"request", "ir.load", "lint", "collect", "pag.topdown.build", "mpisim",
			"pag.topdown.embed", "pag.size", "graph.freeze", "core.analyze", "sdf.predict"} {
			if !names[n] {
				t.Errorf("%s: no %s span", c.Name, n)
			}
		}
		if perflow.AnalysisNeedsParallelView(c.Req.Analysis) != names["pag.parallel"] {
			t.Errorf("%s: pag.parallel span present = %v", c.Name, names["pag.parallel"])
		}
		if c.Req.Ranks2 > 0 && !names["diff"] {
			t.Errorf("%s: two runs but no diff span", c.Name)
		}
		if len(c.Req.Policies) > 0 && !names["policy"] {
			t.Errorf("%s: a policy but no policy span", c.Name)
		}
	}
}
