package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"perflow/internal/workloads"
)

// manifestPath is where the digest manifest lives, relative to the root.
const manifestPath = "perfbench/digests.json"

// setupReps is how many times set-up runs in one process; setup_s is the
// median. Only the last set-up's server (serve-mix) is kept.
var setupReps = map[string]int{"request-topdown": 9, "request-parallel": 9, "serve-mix": 3}

// setupResult is what set-up leaves for the timed part.
type setupResult struct {
	seconds float64   // median set-up time
	reps    []float64 // every set-up time, seconds
	want    map[string]string
	env     *serveEnv // serve-mix only
}

// setup loads every Table-1 workload model, reads the digest manifest, and
// then either warms the request path with the matrix's cheapest program or
// opens a server, store and journal and runs the warm set through them.
func setup(o options) (*setupResult, error) {
	s := &setupResult{}
	var m []entry
	switch o.workload {
	case "request-topdown":
		m = topdownMatrix()
	case "request-parallel":
		m = parallelMatrix()
	}
	for rep := 0; rep < setupReps[o.workload]; rep++ {
		start := time.Now()
		for _, p := range table1 {
			if _, err := workloads.Get(p); err != nil {
				return nil, err
			}
		}
		want, err := readManifest(o.root)
		if err != nil {
			return nil, err
		}
		s.want = want
		if o.workload == "serve-mix" {
			if s.env != nil {
				if err := s.env.close(); err != nil {
					return nil, err
				}
			}
			tmp := filepath.Join(o.root, ".bench_build", "tmp")
			if s.env, err = openServe(tmp, o.seed); err != nil {
				return nil, err
			}
		} else {
			for _, e := range m {
				if !strings.HasPrefix(e.Name, "ep@") {
					continue
				}
				_, rep, err := execute(e.Req)
				if err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", e.Name, err)
				}
				if digest(rep) != want[e.Name] {
					return nil, fmt.Errorf("warm-up %s: report does not match the digest manifest", e.Name)
				}
			}
		}
		s.reps = append(s.reps, time.Since(start).Seconds())
	}
	s.seconds = median(s.reps)
	return s, nil
}

func readManifest(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, manifestPath))
	if err != nil {
		return nil, err
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return want, nil
}

// writeManifest executes every entry of both request matrices once and
// records the SHA-256 of each report. Reports must stay byte-identical, so
// the manifest is regenerated only when a change means to alter a report.
func writeManifest(root string, log io.Writer) error {
	want := map[string]string{}
	for _, m := range [][]entry{topdownMatrix(), parallelMatrix()} {
		for _, e := range m {
			_, rep, err := execute(e.Req)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			want[e.Name] = digest(rep)
			fmt.Fprintf(log, "%-24s %s\n", e.Name, want[e.Name][:16])
		}
	}
	b, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, manifestPath), append(b, '\n'), 0o644)
}
