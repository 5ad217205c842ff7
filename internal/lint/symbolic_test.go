package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/sdf"
	"perflow/internal/workloads"
)

// cleanPrograms returns every built-in workload plus every non-defect DSL
// example, keyed by a display name.
func cleanPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := map[string]*ir.Program{}
	for _, name := range workloads.Names() {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		out[name] = prog
	}
	paths, err := filepath.Glob("../../examples/dsl/*.pfl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out["dsl/"+filepath.Base(p)] = prog
	}
	return out
}

// TestSymbolicEnumerationAgree is the oracle test of the one static
// interpretation lint runs on: the per-rank communication stream evaluated
// from the sdf model must equal refRankComms's walk of the IR — op for op,
// peer for peer, multiplicity and enclosing loops alike — and the PF010 and
// PF011 findings computed from it must equal refReqWalker's, on every
// program of oraclePrograms (clean, defective, fuzz seeds, recursive), at
// {4, 8, 16, 64} and at each program's witness sizes.
func TestSymbolicEnumerationAgree(t *testing.T) {
	for name, prog := range oraclePrograms(t) {
		t.Run(name, func(t *testing.T) {
			if !prog.Finalized() {
				if err := prog.FinalizeStructure(); err != nil {
					t.Fatal(err)
				}
			}
			m, err := sdf.New(prog)
			if err != nil {
				t.Fatalf("sdf.New: %v", err)
			}
			ps := &Pass{Prog: prog, cache: &runCache{prog: prog, model: m}}
			sizes := append([]int{4, 8, 16, 64}, sdf.WitnessSizes(prog)...)
			for _, size := range sizes {
				for r := 0; r < size; r++ {
					sym := ps.Comms(r, size)
					enum := refRankComms(prog, r, size)
					if !reflect.DeepEqual(sym, enum) {
						t.Fatalf("rank %d size %d: symbolic stream (%d ops) != enumerated stream (%d ops)",
							r, size, len(sym), len(enum))
					}
				}
				for _, code := range []string{"PF010", "PF011"} {
					got := requestFindings(ps, size, code)
					want := refRequestFindings(ps, size, code)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("size %d %s: stream findings %v != walker findings %v", size, code, got, want)
					}
				}
			}
		})
	}
}

// preSymbolicAnalyzers names every analyzer with a code below PF030: the
// per-size checks that model only the enumerated sizes.
func preSymbolicAnalyzers() []string {
	var out []string
	for _, an := range Analyzers() {
		if an.Code < "PF030" {
			out = append(out, an.Name)
		}
	}
	return out
}

// TestSymbolicFindingsMatchEnumeration asserts that on every clean program
// the full lint run is byte-identical to a run of only the per-size
// analyzers: the witness-size analyzers (PF030+) add nothing on
// defect-free programs.
func TestSymbolicFindingsMatchEnumeration(t *testing.T) {
	perSize := Options{Analyzers: preSymbolicAnalyzers()}
	for name, prog := range cleanPrograms(t) {
		t.Run(name, func(t *testing.T) {
			sym, err := Run(prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			enum, err := Run(prog, perSize)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sym, enum) {
				t.Fatalf("findings differ with the symbolic analyzers on/off:\nsymbolic: %v\nenumerated: %v", sym, enum)
			}
		})
	}
}

// TestSymbolicPlantedDefects pins, for each PF030–PF036 fixture, that the
// symbolic analyzers report the planted code at the planted position — and
// that the per-size analyzers (codes below PF030) find NOTHING in the same
// file. That is the regression guarantee of the symbolic layer: every one
// of these defects is provably invisible to the enumerated sizes.
func TestSymbolicPlantedDefects(t *testing.T) {
	cases := []struct {
		fixture string
		code    string
		pos     string
	}{
		{"pf030.pfl", "PF030", "wild.c:6"},
		{"pf031.pfl", "PF031", "reuse.c:4"},
		{"pf032.pfl", "PF032", "diverge.c:3"},
		{"pf033.pfl", "PF033", "imbalance.c:4"},
		{"pf034.pfl", "PF034", "barrier.c:4"},
		{"pf035.pfl", "PF035", "vol.c:3"},
		{"pf036.pfl", "PF036", "sizedep.c:3"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "dsl", "bad", tc.fixture)
			parse := func() *ir.Program {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				prog, err := ir.ParseLenient(f)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}

			diags, err := Run(parse(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range diags {
				if d.Code == tc.code && d.Position.String() == tc.pos {
					found = true
				}
				if d.Code < "PF030" {
					t.Errorf("unexpected pre-symbolic finding %s at %s: %s", d.Code, d.Position, d.Message)
				}
			}
			if !found {
				t.Errorf("want %s at %s; got %v", tc.code, tc.pos, diags)
			}

			old, err := Run(parse(), Options{Analyzers: preSymbolicAnalyzers()})
			if err != nil {
				t.Fatal(err)
			}
			if len(old) != 0 {
				t.Errorf("the per-size analyzers should find nothing in %s; got %v", tc.fixture, old)
			}
		})
	}
}

// TestWildcardPoolMatching covers the matcher's MPI_ANY_SOURCE semantics
// directly: a send absorbed by a wildcard pool is not an unmatched channel,
// a wildcard receive with no candidate sender anywhere is, and a payload
// disagreement between a send and the absorbing pool is a PF014.
func TestWildcardPoolMatching(t *testing.T) {
	lintSrc := func(t *testing.T, src string) []Diagnostic {
		t.Helper()
		prog, err := ir.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	header := "program wildpool\nfunc main file wp.c line 1\n"

	// Absorbed: rank 1 sends to rank 0, rank 0 receives from any source.
	clean := lintSrc(t, header+`
  branch sender line 2 taken 0 add 1:1
    mpi send line 3 to rank0 bytes 64 tag 1
  end
  branch root line 5 taken 0 add 0:1
    mpi recv line 6 to any bytes 64 tag 1
  end
end`)
	for _, d := range clean {
		if d.Code == "PF012" {
			t.Errorf("absorbed send reported as unmatched: %s", d.Message)
		}
	}

	// Orphan wildcard: nobody sends under tag 9 at all.
	orphan := lintSrc(t, header+`
  branch root line 2 taken 0 add 0:1
    mpi recv line 3 to any bytes 64 tag 9
  end
end`)
	if !hasCode(orphan, "PF012") {
		t.Errorf("wildcard receive with no candidate send must be PF012; got %v", orphan)
	}

	// Size skew: the pool posts 32 bytes for a 64-byte send.
	skew := lintSrc(t, header+`
  branch sender line 2 taken 0 add 1:1
    mpi send line 3 to rank0 bytes 64 tag 1
  end
  branch root line 5 taken 0 add 0:1
    mpi recv line 6 to any bytes 32 tag 1
  end
end`)
	if !hasCode(skew, "PF014") {
		t.Errorf("payload skew against the wildcard pool must be PF014; got %v", skew)
	}
}

func hasCode(diags []Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}
