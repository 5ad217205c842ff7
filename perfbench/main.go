// Command perfbench is the repository's benchmark. It measures PerFlow
// from outside, through the exported functions of its modules, on three
// workloads:
//
//	request-topdown   Table-1 programs x {8, 64} ranks x {profile, comm}
//	request-parallel  the same programs under critical-path and
//	                  scalability analysis, plus vite contention
//	serve-mix         an in-process serve.Server under an open-loop ladder
//	                  of generated DSL jobs
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload request-topdown --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it runs
// the workload again with spans around each layer call and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A results file with the environment stamp, sample counts and (traced)
// spans is written under .bench_build/results. README.md documents the
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload      string
	seed          int64
	seconds       int
	trace         bool
	root          string
	steady        int
	writeManifest bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "request-topdown, request-parallel or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 40, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.root, "root", ".", "repository root (holds BENCHMARK.json and perfbench/)")
	fs.IntVar(&o.steady, "steady", 0, "run the workload this many times with seeds seed..seed+n-1 and report each end-to-end metric's spread against its bound")
	fs.BoolVar(&o.writeManifest, "write-manifest", false, "regenerate perfbench/digests.json from the program at hand")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	if o.writeManifest {
		return o, nil
	}
	if _, ok := workloadByName[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want request-topdown, request-parallel or serve-mix)", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	return o, nil
}

// workloadByName maps each workload to the function that runs it.
var workloadByName = map[string]func(o options, s *setupResult) (*outcome, error){
	"request-topdown": func(o options, s *setupResult) (*outcome, error) {
		return requestWorkload(o, s, topdownMatrix(), true)
	},
	"request-parallel": func(o options, s *setupResult) (*outcome, error) {
		return requestWorkload(o, s, parallelMatrix(), false)
	},
	"serve-mix": serveWorkload,
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	switch {
	case o.writeManifest:
		err = writeManifest(o.root, stderr)
	case o.steady > 0:
		err = steady(o, stdout)
	default:
		err = measure(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int
	wrong     []string
	values    map[string]float64
	// details go to the results file only: sample counts, the percentile
	// each tail metric used, ladder rungs.
	details map[string]any
	spans   map[string][]span
}

func measure(o options, stdout io.Writer) error {
	steal0, total0 := hostCPU()
	s, err := setup(o)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out, err := workloadByName[o.workload](o, s)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		out.values["setup_s"] = s.seconds
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	sum := summary{
		Correct:   out.failed == 0 && len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
		}
		sum.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	env := stamp(o.workload, o.seed, o.seconds, o.trace)
	if steal1, total1 := hostCPU(); total1 > total0 {
		env.HostStealFrac = (steal1 - steal0) / (total1 - total0)
	}
	if err := writeResults(o, env, sum, out, s); err != nil {
		return err
	}
	for _, w := range out.wrong {
		fmt.Fprintln(stdout, "WRONG", w)
	}
	fmt.Fprintf(stdout, "%s seed=%d seconds=%d trace=%v attempted=%d failed=%d error_rate=%.4g host_steal=%.3f\n",
		o.workload, o.seed, o.seconds, o.trace, sum.Attempted, sum.Failed, float64(sum.Failed)/float64(max(sum.Attempted, 1)), env.HostStealFrac)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-26s %12.4f %s\n", d.Name, sum.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// writeResults writes the full record of one run under
// .bench_build/results.
func writeResults(o options, env envStamp, sum summary, out *outcome, s *setupResult) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"env":       env,
		"summary":   sum,
		"setup_s":   s.reps,
		"details":   out.details,
		"wrong":     out.wrong,
		"spans":     out.spans,
		"generated": time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// benchmarkBounds reads each end-to-end metric's bound from BENCHMARK.json.
func benchmarkBounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// lastLine returns the last non-empty line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
