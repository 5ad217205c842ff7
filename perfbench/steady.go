package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steady runs the workload o.steady times in child processes, with seeds
// o.seed, o.seed+1, ..., and prints each end-to-end metric's median,
// quartiles and spread (interquartile distance over the median) next to
// its bound from BENCHMARK.json. A spread below a third of the bound is
// steady; a spread above the bound makes the metric unusable for claims.
func steady(o options, stdout io.Writer) error {
	bounds, err := benchmarkBounds(o.root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", "0", "--root", o.root)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var sum summary
		if err := json.Unmarshal([]byte(lastLine(string(b))), &sum); err != nil {
			return fmt.Errorf("run with seed %d: last line: %w", seed, err)
		}
		steal := ""
		if i := strings.Index(string(b), "host_steal="); i >= 0 {
			steal = strings.Fields(string(b)[i:])[0]
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d %s", seed, sum.Correct, sum.Attempted, sum.Failed, steal)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, " %s=%.4g", d.Name, sum.Metrics[d.Name].Value)
		}
		fmt.Fprintln(stdout)
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], sum.Metrics[d.Name].Value)
		}
	}
	fmt.Fprintf(stdout, "\n%s, %d runs of %ds\n", o.workload, o.steady, o.seconds)
	fmt.Fprintf(stdout, "%-20s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(values[d.Name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound := bounds[d.Name]
		verdict := "steady"
		switch {
		case d.Name == "setup_s":
			verdict = "(set-up: median compared only)"
		case spread > bound:
			verdict = "TOO NOISY"
		case spread > bound/3:
			verdict = "within bound, above a third of it"
		}
		fmt.Fprintf(stdout, "%-20s %12.4f %12.4f %12.4f %8.4f %7.3f  %s\n", d.Name, q1, q2, q3, spread, bound, verdict)
	}
	return nil
}
