package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// A short run of each workload must print a correct result line carrying
// exactly the metrics BENCHMARK.json lists for its mode.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, c := range []struct {
		workload string
		trace    string
	}{
		{"request-topdown", "0"},
		{"request-topdown", "1"},
		{"request-parallel", "0"},
		{"serve-mix", "0"},
		{"serve-mix", "1"},
	} {
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", c.workload, "--seed", "5", "--seconds", "1", "--trace", c.trace, "--root", ".."}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			var sum summary
			if err := json.Unmarshal([]byte(lastLine(stdout.String())), &sum); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", sum.Correct, sum.Attempted, sum.Failed, stdout.String())
			}
			defs := endToEnd
			if c.trace == "1" {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%d metrics, want %d", len(sum.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := sum.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: %+v present=%v, want unit %s", d.Name, m, ok, d.Unit)
				}
			}
		})
	}
}

// The metric tables in metrics.go, BENCHMARK.json and README.md must agree.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloadByName[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
}
