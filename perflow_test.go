package perflow_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"perflow"
	"perflow/internal/ir"
)

func TestListing1CommunicationAnalysis(t *testing.T) {
	// The paper's Listing 1, line for line:
	//   pag = pflow.run(bin="./a.out", cmd="mpirun -np 4 ./a.out")
	//   V_comm = pflow.filter(pag.V, name="MPI_*")
	//   V_hot  = pflow.hotspot_detection(V_comm)
	//   V_imb  = pflow.imbalance_analysis(V_hot)
	//   V_bd   = pflow.breakdown_analysis(V_imb)
	//   pflow.report(V_imb, V_bd, attrs)
	pf := perflow.New()
	res, err := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	vComm := pf.Filter(perflow.TopDownSet(res), "MPI_*")
	vHot := pf.HotspotDetection(vComm, 10)
	vImb := pf.ImbalanceAnalysis(vHot, 1.1)
	vBd := pf.BreakdownAnalysis(vHot)
	var buf bytes.Buffer
	attrs := []string{"name", "comm-info", "debug-info", "etime"}
	if err := pf.ReportTo(&buf, attrs, vImb, vBd); err != nil {
		t.Fatal(err)
	}
	if vComm.Len() == 0 || vHot.Len() == 0 || vBd.Len() == 0 {
		t.Fatalf("pipeline degenerate: comm=%d hot=%d bd=%d", vComm.Len(), vHot.Len(), vBd.Len())
	}
	if !strings.Contains(buf.String(), "MPI_") {
		t.Errorf("report missing MPI vertices:\n%s", buf.String())
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	pf := perflow.New()
	if _, err := pf.RunWorkload("not-a-workload", perflow.RunOptions{}); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := pf.Run(nil, perflow.RunOptions{}); err == nil {
		t.Error("nil program should error")
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := perflow.Workloads()
	want := map[string]bool{"zeusmp": false, "lammps": false, "vite": false, "cg": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("workload %q not listed", n)
		}
	}
}

func TestRunDSL(t *testing.T) {
	src := `program tiny
func main file t.c line 1
  compute work line 2 cost 100
  mpi allreduce line 3 bytes 8
end
`
	pf := perflow.New()
	res, err := pf.RunDSL(strings.NewReader(src), perflow.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.TotalTime() <= 0 {
		t.Error("DSL program did not run")
	}
	if _, err := pf.RunDSL(strings.NewReader("garbage"), perflow.RunOptions{}); err == nil {
		t.Error("bad DSL should error")
	}
}

func TestCustomPassInPerFlowGraph(t *testing.T) {
	// A user-defined pass wired between built-ins, as §4.3 prescribes.
	pf := perflow.New()
	res, err := pf.RunWorkload("cg", perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	g := perflow.NewPerFlowGraph()
	src := g.AddSource("pag", perflow.TopDownSet(res))
	filter := g.AddPass(perflow.Passes.Filter("MPI_*"))
	custom := perflow.PassFunc{
		PassName: "keep_isend_only",
		NumIn:    1,
		Fn: func(in []*perflow.Set) ([]*perflow.Set, error) {
			return []*perflow.Set{in[0].FilterName("MPI_Isend")}, nil
		},
	}
	hot := g.Chain(filter, custom, perflow.Passes.Hotspot(perflow.MetricExclTime, 2))
	if err := g.Pipe(src, filter); err != nil {
		t.Fatal(err)
	}
	res2, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res2.Output(hot)
	if out.Len() == 0 {
		t.Fatal("custom pipeline empty")
	}
	for _, n := range out.Names() {
		if n != "MPI_Isend" {
			t.Errorf("custom pass leaked %q", n)
		}
	}
}

func TestScalabilityParadigmFacade(t *testing.T) {
	pf := perflow.New()
	small, err := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	large, err := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := pf.ScalabilityAnalysisParadigm(small, large, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backtracked.Len() == 0 {
		t.Error("no backtracked vertices")
	}
	// Needing the parallel view is enforced.
	if _, err := pf.ScalabilityAnalysisParadigm(small, small, &buf); err == nil {
		t.Error("missing parallel view should error")
	}
}

func TestMPIProfilerFacade(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("is", perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := pf.MPIProfilerParadigm(res)
	if len(rows) == 0 {
		t.Fatal("empty MPI profile")
	}
	var buf bytes.Buffer
	perflow.WriteMPIProfile(&buf, rows)
	if !strings.Contains(buf.String(), "MPI_") {
		t.Error("profile text empty")
	}
}

func TestCriticalPathFacade(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("lu", perflow.RunOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cp, err := pf.CriticalPathParadigm(res, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() == 0 {
		t.Error("empty critical path")
	}
	// Without parallel view it must refuse.
	res2, _ := pf.RunWorkload("lu", perflow.RunOptions{Ranks: 2, SkipParallelView: true})
	if _, err := pf.CriticalPathParadigm(res2, &buf); err == nil {
		t.Error("critical path without parallel view should error")
	}
}

func TestDOTFacade(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("ep", perflow.RunOptions{Ranks: 2, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	hot := pf.HotspotDetection(perflow.TopDownSet(res), 3)
	dot := perflow.DOT(hot, "hot")
	if !strings.Contains(dot, "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestNewFacadeAnalyses(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: 8, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wait-state classification.
	ws := pf.WaitStateAnalysis(pf.Filter(perflow.TopDownSet(res), "MPI_*"))
	if ws.Len() == 0 {
		t.Error("no classified waits")
	}
	// Community analysis.
	groups := pf.CommunityAnalysis(perflow.TopDownSet(res))
	if len(groups) == 0 {
		t.Error("no communities")
	}
	// Scaling-curve analysis across three scales.
	var results []*perflow.Result
	for _, ranks := range []int{4, 8, 16} {
		r, err := pf.RunWorkload("zeusmp", perflow.RunOptions{Ranks: ranks, SkipParallelView: true})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	growing, err := pf.ScalingCurveAnalysis(results)
	if err != nil {
		t.Fatal(err)
	}
	if growing.Len() == 0 {
		t.Error("no growing vertices across the scaling curve")
	}
	// Timeline + JSON render without error.
	var buf bytes.Buffer
	perflow.WriteTimeline(&buf, res.Run)
	if !strings.Contains(buf.String(), "timeline:") {
		t.Error("timeline empty")
	}
	buf.Reset()
	if err := perflow.WriteJSON(&buf, "t", ws); err != nil || !strings.Contains(buf.String(), "vertices") {
		t.Errorf("json render failed: %v", err)
	}
}

func TestSaveLoadPAGFacade(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("is", perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/is.pag"
	if err := perflow.SavePAG(res, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := perflow.LoadPAGResult(path)
	if err != nil {
		t.Fatal(err)
	}
	hotBefore := pf.HotspotDetection(perflow.TopDownSet(res), 5).Names()
	hotAfter := pf.HotspotDetection(perflow.TopDownSet(loaded), 5).Names()
	if len(hotBefore) != len(hotAfter) {
		t.Fatalf("offline hotspots differ: %v vs %v", hotBefore, hotAfter)
	}
	for i := range hotBefore {
		if hotBefore[i] != hotAfter[i] {
			t.Errorf("offline hotspot %d: %q vs %q", i, hotBefore[i], hotAfter[i])
		}
	}
	if _, err := perflow.LoadPAGResult(path + "-missing"); err == nil {
		t.Error("missing file should error")
	}
}

func TestGPUWorkloadFacade(t *testing.T) {
	pf := perflow.New()
	res, err := pf.RunWorkload("jacobi-gpu", perflow.RunOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	kernels := pf.Filter(perflow.TopDownSet(res), "interior_update")
	if kernels.Len() != 1 {
		t.Fatalf("kernel vertex missing")
	}
	if kernels.Vertex(0).Metric(perflow.MetricExclTime) <= 0 {
		t.Error("kernel time not embedded")
	}
}

// TestSkipLintStillValidates: linting indexes a program's structure
// without validating it, and a later SkipLint run must still refuse a
// recursive program rather than simulate it (unbounded recursion).
func TestSkipLintStillValidates(t *testing.T) {
	p, err := ir.ParseLenient(strings.NewReader(`program rec
func main file r.c line 1
  call f line 2
end
func f file r.c line 10
  call g line 11
end
func g file r.c line 20
  call f line 21
end
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perflow.Lint(p, 0); err != nil {
		t.Fatal(err)
	}
	_, err = perflow.New().Run(p, perflow.RunOptions{Ranks: 4, SkipLint: true})
	if err == nil || !strings.Contains(err.Error(), "recursive call cycle") {
		t.Fatalf("SkipLint run of a recursive program = %v, want the recursion error", err)
	}
}

func TestRunFailsFastOnLintErrors(t *testing.T) {
	// A structurally valid program with a leaked nonblocking request: the
	// static diagnostics engine must abort the run with a *LintError before
	// any simulation happens.
	src := `program leaky
func main file l.c line 1
  mpi irecv line 3 to right bytes 64 tag 1 req r0
  compute work line 4 cost 100
end
`
	pf := perflow.New()
	_, err := pf.RunDSL(strings.NewReader(src), perflow.RunOptions{Ranks: 4})
	var lerr *perflow.LintError
	if !errors.As(err, &lerr) {
		t.Fatalf("want *LintError, got %v", err)
	}
	found := false
	for _, d := range lerr.Diagnostics {
		if d.Code == "PF010" && d.Severity == perflow.SevError {
			found = true
		}
	}
	if !found {
		t.Errorf("LintError missing the PF010 finding: %+v", lerr.Diagnostics)
	}
	// SkipLint bypasses the gate; the program still simulates.
	res, err := pf.RunDSL(strings.NewReader(src), perflow.RunOptions{Ranks: 4, SkipLint: true})
	if err != nil {
		t.Fatalf("SkipLint run: %v", err)
	}
	if res.Run.TotalTime() <= 0 {
		t.Error("SkipLint program did not run")
	}
}

func TestRunAttachesLintWarningsToPAG(t *testing.T) {
	// Warning-severity findings must survive the run as the "lint"
	// attribute on the matching top-down vertex and show up in reports.
	src := `program warned
func main file w.c line 1
  loop dead line 3 trips 0
    compute idle line 4 cost 5
  end
  compute work line 6 cost 100
  mpi allreduce line 7 bytes 8
end
`
	pf := perflow.New()
	res, err := pf.RunDSL(strings.NewReader(src), perflow.RunOptions{Ranks: 4, SkipParallelView: true})
	if err != nil {
		t.Fatal(err)
	}
	loop := pf.Filter(perflow.TopDownSet(res), "dead")
	if loop.Len() != 1 {
		t.Fatalf("loop vertex missing")
	}
	var buf bytes.Buffer
	if err := pf.ReportTo(&buf, []string{"name", "time", "lint"}, loop); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PF021") {
		t.Errorf("report missing the PF021 lint attribute:\n%s", out)
	}
	if !strings.Contains(out, "-- lint findings --") {
		t.Errorf("report missing the lint findings section:\n%s", out)
	}
}
