package ir

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse asserts the DSL parser's contract on arbitrary text: both
// ParseLenient and the strict Parse either return an error or a non-nil
// program — never a panic, and never a nil program with a nil error. The
// corpus seeds from every shipped example program, including the planted
// defect fixtures under examples/dsl/bad/, plus hand-picked minimal
// statements covering each grammar production.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "examples", "dsl", "*.pfl"),
		filepath.Join("..", "..", "examples", "dsl", "bad", "*.pfl"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no DSL seeds match %s", pattern)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Add("")
	f.Add("program p\nfunc main file a.c line 1\nend\n")
	f.Add("program p\nentry e\nfunc e file a.c line 1\ncompute k line 2 cost 10/P slope 0.5\nend\n")
	f.Add("program p\nfunc main file a.c line 1\nloop l line 2 trips 4\nmpi allreduce line 3 bytes 8\nend\nend\n")
	f.Add("program p\nfunc main file a.c line 1\nmpi isend line 2 to right bytes 1024 tag 7 req r\nmpi wait line 3 req r\nend\n")
	f.Add("program p\nfunc main file a.c line 1\nparallel r line 2 threads 4 workshare\ncompute c line 3 cost 5\nend\nend\n")
	f.Add("program p\nfunc main file a.c line 1\nkernel k line 2 cost 100 h2d 8 d2h 8 stream 1 async\ndevsync line 3\nend\n")
	f.Add("# lint:disable=PF013\nprogram p\nfunc main file a.c line 1\nmpi send line 2 to rank 0 bytes 8 tag 1\nend\n")
	f.Add("program p\nkloc 1.5\nbinary 123\nfunc main file a.c line 1\nmutex m line 2 count 4 hold 2\nalloc allocate line 3 count 8/sqrtP hold 1\nend\n")
	f.Add("program p\nfunc main file a.c line 1\nloop l line 2 trips nan comm-per-iter\nmpi barrier line 3\nend\nend\n")
	f.Add("program p\nfunc main file a.c line 1\ncompute c line 2 cost inf slope -inf factor 0:nan\nend\n")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseLenient(strings.NewReader(src))
		if err == nil && prog == nil {
			t.Fatal("ParseLenient returned nil program with nil error")
		}
		if err != nil && prog != nil {
			t.Fatalf("ParseLenient returned both a program and error %v", err)
		}
		// The strict path layers semantic validation on the same input and
		// must uphold the same contract.
		sprog, serr := Parse(strings.NewReader(src))
		if serr == nil && sprog == nil {
			t.Fatal("Parse returned nil program with nil error")
		}
		// Strict success implies lenient success: Parse is ParseLenient
		// plus validation.
		if serr == nil && err != nil {
			t.Fatalf("Parse accepted input ParseLenient rejected: %v", err)
		}
	})
}
