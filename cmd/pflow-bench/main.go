// Command pflow-bench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	pflow-bench table1              # Table 1: collection overhead and space
//	pflow-bench table2              # Table 2: PAG sizes
//	pflow-bench casea               # §5.3 ZeusMP scalability (Figs 9-10)
//	pflow-bench caseb               # §5.4 LAMMPS causal analysis (Figs 11-12)
//	pflow-bench casec               # §5.5 Vite contention (Figs 13-16)
//	pflow-bench compare             # §5.3 four-tool comparison
//	pflow-bench loc                 # §5.3 implementation-effort comparison
//	pflow-bench ablations           # DESIGN.md ablation studies
//	pflow-bench ae                  # the paper's artifact-evaluation checks (A.3)
//	pflow-bench serve               # job-server load benchmark (BENCH_SERVE.json)
//	pflow-bench all                 # everything above (except serve)
//
// Flags adjust the scales (defaults mirror the paper where laptop-feasible:
// 128 ranks for the tables, 16 -> 1024 for case A).
package main

import (
	"flag"
	"fmt"
	"os"

	"perflow/internal/experiments"
)

func main() {
	var (
		tableRanks = flag.Int("table-ranks", 128, "rank count for tables 1 and 2 (paper: 128)")
		caseASmall = flag.Int("casea-small", 16, "case A small scale (paper: 16)")
		caseALarge = flag.Int("casea-large", 1024, "case A large scale (paper: 2048)")
		caseBRanks = flag.Int("caseb-ranks", 64, "case B rank count (paper: 2048)")
		caseCRanks = flag.Int("casec-ranks", 8, "case C rank count (paper: 8)")
		compRanks  = flag.Int("compare-ranks", 128, "comparison rank count (paper: 128)")
		locFile    = flag.String("loc-example", "examples/scalability/main.go", "example file for the LoC count")
		serveOut   = flag.String("serve-out", "BENCH_SERVE.json", "output path for the serve load benchmark")
		serveJobs  = flag.Int("serve-jobs", 300, "jobs per serve benchmark scenario")
	)
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}

	out := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pflow-bench:", err)
		os.Exit(1)
	}
	section := func(name string) { fmt.Fprintf(out, "\n===== %s =====\n", name) }

	runTable1 := func() {
		section("table1")
		rows, err := experiments.Table1(*tableRanks)
		if err != nil {
			fail(err)
		}
		experiments.WriteTable1(out, rows)
	}
	runTable2 := func() {
		section("table2")
		rows, err := experiments.Table2(*tableRanks)
		if err != nil {
			fail(err)
		}
		experiments.WriteTable2(out, rows)
	}
	runCaseA := func() {
		section("case study A (ZeusMP)")
		res, err := experiments.CaseA(*caseASmall, *caseALarge, out)
		if err != nil {
			fail(err)
		}
		experiments.WriteCaseA(out, res)
	}
	runCaseB := func() {
		section("case study B (LAMMPS)")
		res, err := experiments.CaseB(*caseBRanks, out)
		if err != nil {
			fail(err)
		}
		experiments.WriteCaseB(out, res)
	}
	runCaseC := func() {
		section("case study C (Vite)")
		res, err := experiments.CaseC(*caseCRanks, []int{2, 3, 4, 5, 6, 7, 8}, out)
		if err != nil {
			fail(err)
		}
		experiments.WriteCaseC(out, res)
	}
	runCompare := func() {
		section("tool comparison")
		if _, err := experiments.Compare(*compRanks, out); err != nil {
			fail(err)
		}
	}
	runLoC := func() {
		section("implementation effort")
		res, err := experiments.LoC(*locFile)
		if err != nil {
			fail(err)
		}
		experiments.WriteLoC(out, res)
	}
	runAE := func() {
		section("artifact-evaluation validations")
		mv, err := experiments.AEModelValidation(8)
		if err != nil {
			fail(err)
		}
		experiments.WriteAEModel(out, mv)
		pv, err := experiments.AEPassValidation(4)
		if err != nil {
			fail(err)
		}
		experiments.WriteAEPass(out, pv)
	}
	runAblations := func() {
		section("ablations")
		hv, err := experiments.AblationHybridVsDynamic(32, nil)
		if err != nil {
			fail(err)
		}
		experiments.WriteHybridVsDynamic(out, hv)
		st, err := experiments.AblationSamplingVsTracing(32, nil)
		if err != nil {
			fail(err)
		}
		experiments.WriteSamplingVsTracing(out, st)
		mp, err := experiments.AblationMatchPruning(8, 8)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "Ablation: subgraph-match label pruning — %d embeddings, %v with pruning vs %v without\n",
			mp.Embeddings, mp.WithPruning, mp.WithoutPrune)
		pv, err := experiments.AblationParallelViewScaling(nil)
		if err != nil {
			fail(err)
		}
		experiments.WriteParallelViewScaling(out, pv)
	}

	runServe := func() {
		section("serve load benchmark")
		if err := runServeBench(out, *serveOut, *serveJobs); err != nil {
			fail(err)
		}
	}

	switch cmd {
	case "table1":
		runTable1()
	case "table2":
		runTable2()
	case "casea":
		runCaseA()
	case "caseb":
		runCaseB()
	case "casec":
		runCaseC()
	case "compare":
		runCompare()
	case "loc":
		runLoC()
	case "ablations":
		runAblations()
	case "ae":
		runAE()
	case "serve":
		runServe()
	case "all":
		runAE()
		runTable1()
		runTable2()
		runCaseA()
		runCaseB()
		runCaseC()
		runCompare()
		runLoC()
		runAblations()
	default:
		fail(fmt.Errorf("unknown subcommand %q", cmd))
	}
}
