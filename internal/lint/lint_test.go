package lint

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/sdf"
)

var update = flag.Bool("update", false, "rewrite the golden files under examples/dsl/bad")

func lintFile(t *testing.T, path string) []Diagnostic {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prog, err := ir.ParseLenient(f)
	if err != nil {
		t.Fatalf("%s: parse: %v", path, err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatalf("%s: lint: %v", path, err)
	}
	return diags
}

// TestBadFixturesGolden asserts the exact lint output for every planted
// defect under examples/dsl/bad, and that each fixture has at least one
// finding. Several symbolic defect classes (nondeterministic wildcard
// order, emergent imbalance, redundant barriers, super-linear volume) are
// warnings by design, so not every fixture carries an error.
func TestBadFixturesGolden(t *testing.T) {
	paths, err := filepath.Glob("../../examples/dsl/bad/*.pfl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bad fixtures found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			diags := lintFile(t, path)
			if len(diags) == 0 {
				t.Errorf("%s: want at least one finding", path)
			}
			var b strings.Builder
			if err := Write(&b, diags); err != nil {
				t.Fatal(err)
			}
			golden := path + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run: go test ./internal/lint -update): %v", err)
			}
			if b.String() != string(want) {
				t.Errorf("lint output mismatch for %s\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
			}
		})
	}
}

// TestExamplesClean asserts every shipped example DSL program lints with
// zero findings of any severity.
func TestExamplesClean(t *testing.T) {
	paths, err := filepath.Glob("../../examples/dsl/*.pfl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			diags := lintFile(t, path)
			if len(diags) != 0 {
				var b strings.Builder
				_ = Write(&b, diags)
				t.Errorf("%s: want zero findings, got %d:\n%s", path, len(diags), b.String())
			}
		})
	}
}

// TestPlantedDefectCodes pins the code and position of each planted defect
// so the fixture <-> diagnostic mapping is explicit, not only golden text.
func TestPlantedDefectCodes(t *testing.T) {
	cases := []struct {
		file string
		code string
		pos  string
	}{
		{"deadlock.pfl", "PF013", "ring.c:5"},
		{"leaked_request.pfl", "PF010", "leak.c:3"},
		{"tag_mismatch.pfl", "PF012", "tags.c:5"},
		{"tag_mismatch.pfl", "PF012", "tags.c:6"},
	}
	for _, c := range cases {
		diags := lintFile(t, filepath.Join("../../examples/dsl/bad", c.file))
		found := false
		for _, d := range diags {
			if d.Code == c.code && d.Position.String() == c.pos {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s finding at %s (got %+v)", c.file, c.code, c.pos, diags)
		}
	}
}

// TestSuppressionComment asserts "# lint:disable=CODE" on the statement
// preceding a defect mutes exactly that code.
func TestSuppressionComment(t *testing.T) {
	src := `
program supp
func main file s.c line 1
  # lint:disable=PF010
  mpi irecv line 3 to right bytes 64 tag 1 req r
  mpi isend line 4 to left bytes 64 tag 1 req q
end
`
	prog, err := ir.ParseLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Code == "PF010" && d.Line == 3 {
			t.Errorf("suppressed finding still reported: %+v", d)
		}
	}
	// The un-suppressed leak on line 4 must survive.
	found := false
	for _, d := range diags {
		if d.Code == "PF010" && d.Line == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("unsuppressed PF010 on line 4 missing; got %+v", diags)
	}
}

// TestNestedParallelThroughCalls asserts the satellite fix: a parallel
// region calling into a function that contains another parallel region is
// now rejected, with a PF005 finding through the lint path and an error
// from Validate.
func TestNestedParallelThroughCalls(t *testing.T) {
	src := `
program nest
func main file n.c line 1
  parallel outer line 3 threads 4
    call helper line 4
  end
end
func helper file n.c line 10
  parallel inner line 12 threads 4
    compute w line 13 cost 5
  end
end
`
	prog, err := ir.ParseLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Code == ir.CodeNestedParallel && d.Line == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("want PF005 at n.c:4 for nested parallel through call; got %+v", diags)
	}
	if err := prog.Validate(); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("Validate must reject nested parallel through calls, got %v", err)
	}
}

// TestRequestReuseWarning covers PF011: reissuing a pending request name.
func TestRequestReuseWarning(t *testing.T) {
	src := `
program reuse
func main file r.c line 1
  mpi irecv line 3 to right bytes 64 tag 1 req r
  mpi irecv line 4 to left bytes 64 tag 2 req r
  mpi wait line 5 req r
  mpi isend line 6 to left bytes 64 tag 1 req a
  mpi isend line 7 to right bytes 64 tag 2 req b
  mpi waitall line 8
end
`
	prog, err := ir.ParseLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Code == "PF011" && d.Line == 4 {
			found = true
			if d.Severity != SevWarning {
				t.Errorf("PF011 severity = %v, want warning", d.Severity)
			}
			if len(d.Related) == 0 || d.Related[0].Line != 3 {
				t.Errorf("PF011 should point at the previous issue on line 3: %+v", d.Related)
			}
		}
	}
	if !found {
		t.Errorf("want PF011 at r.c:4; got %+v", diags)
	}
}

// TestCollectiveDivergence covers PF020: a collective under a
// rank-dependent branch.
func TestCollectiveDivergence(t *testing.T) {
	src := `
program div
func main file d.c line 1
  branch onlyroot line 3 taken 0 add 0:1
    mpi allreduce line 4 bytes 8
  end
end
`
	prog, err := ir.ParseLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Code == "PF020" && d.Line == 4 && d.Severity == SevWarning {
			found = true
		}
	}
	if !found {
		t.Errorf("want PF020 warning at d.c:4; got %+v", diags)
	}
}

// TestTrivialLoopAndUnreachable covers PF021 (zero-trip loop) and PF022
// (function unreachable from the entry).
func TestTrivialLoopAndUnreachable(t *testing.T) {
	src := `
program triv
func main file t.c line 1
  loop dead line 3 trips 0
    compute w line 4 cost 5
  end
  loop empty line 6 trips 8
    branch never line 7 taken 0
    end
  end
end
func orphan file t.c line 20
  compute o line 21 cost 1
end
`
	prog, err := ir.ParseLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"PF021@3": 0, "PF021@6": 0, "PF022@20": 0}
	for _, d := range diags {
		switch {
		case d.Code == "PF021" && d.Line == 3:
			want["PF021@3"]++
		case d.Code == "PF021" && d.Line == 6:
			want["PF021@6"]++
		case d.Code == "PF022" && d.Line == 20:
			want["PF022@20"]++
			if d.Severity != SevInfo {
				t.Errorf("PF022 severity = %v, want info", d.Severity)
			}
		}
	}
	for k, n := range want {
		if n != 1 {
			t.Errorf("finding %s reported %d times, want 1; all: %+v", k, n, diags)
		}
	}
}

// TestValidateCollectsAll asserts the satellite fix to ir.Validate: a
// program with several independent defects reports every one, joined.
func TestValidateCollectsAll(t *testing.T) {
	src := `
program multi
func main file m.c line 1
  call ghost1 line 2
  call ghost2 line 3
  mpi send line 4 bytes 8 tag 0
end
`
	prog, perr := ir.ParseLenient(strings.NewReader(src))
	if perr != nil {
		t.Fatal(perr)
	}
	err := prog.Validate()
	if err == nil {
		t.Fatal("want validation errors")
	}
	for _, frag := range []string{"ghost1", "ghost2", "no peer"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error missing %q: %v", frag, err)
		}
	}
	if got := len(prog.Violations()); got != 3 {
		t.Errorf("Violations() = %d, want 3", got)
	}
}

// TestJSONOutput sanity-checks the machine-readable encoding.
func TestJSONOutput(t *testing.T) {
	diags := lintFile(t, "../../examples/dsl/bad/leaked_request.pfl")
	var b strings.Builder
	if err := WriteJSON(&b, diags); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"code": "PF010"`, `"severity": "error"`, `"file": "leak.c"`, `"line": 3`} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("JSON output missing %s:\n%s", frag, b.String())
		}
	}
}

// TestFixedSizeOption asserts Options.Ranks pins the analysis to one
// communicator size: pipeline.pfl is fully matched only at 8 ranks, so the
// default multi-size intersection keeps it clean while a fixed size 4
// surfaces the boundary mismatch.
func TestFixedSizeOption(t *testing.T) {
	f, err := os.Open("../../examples/dsl/pipeline.pfl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prog, err := ir.ParseLenient(f)
	if err != nil {
		t.Fatal(err)
	}
	at4, err := Run(prog, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !HasErrors(at4) {
		t.Errorf("pipeline at fixed size 4 should report the unmatched boundary send; got %+v", at4)
	}
	robust, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(robust) != 0 {
		t.Errorf("pipeline under multi-size intersection should be clean; got %+v", robust)
	}
}

// TestRunRejectsTooLargeProgram: a program whose symbolic summary passes
// sdf.MaxWork (nine functions that each call all the others) makes Run
// fail with the typed error instead of running the analyzers.
func TestRunRejectsTooLargeProgram(t *testing.T) {
	var b strings.Builder
	b.WriteString("program acc\nfunc main file a.c line 1\n  call f0 line 2\nend\n")
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "func f%d file a.c line %d\n  mpi allreduce line %d bytes 8\n", i, 100*i+10, 100*i+11)
		for j := 0; j < 9; j++ {
			if j != i {
				fmt.Fprintf(&b, "  call f%d line %d\n", j, 100*i+20+j)
			}
		}
		b.WriteString("end\n")
	}
	prog, err := ir.ParseLenient(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Options{})
	var tooLarge *sdf.TooLargeError
	if !errors.As(err, &tooLarge) || diags != nil {
		t.Fatalf("Run = %d findings, error %v; want a *sdf.TooLargeError", len(diags), err)
	}
}
