package lint_test

import (
	"testing"

	"perflow/internal/experiments"
	"perflow/internal/lint"
	"perflow/internal/workloads"
)

// BenchmarkLint measures one full lint run — every registered analyzer at
// the default sizes, plus the witness sizes of the symbolic analyzers — on
// each Table-1 program. This is the lint layer of every request, so its
// number belongs next to the request-level ones.
func BenchmarkLint(b *testing.B) {
	for _, name := range experiments.Table1Programs() {
		b.Run(name, func(b *testing.B) {
			prog, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lint.Run(prog, lint.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
