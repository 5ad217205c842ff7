package trace_test

import (
	"io"
	"testing"

	"perflow/internal/mpisim"
	"perflow/internal/workloads"
)

// TestEncodedSizeMatchesFramedEncoding pins the closed-form Table-1
// trace-storage figure on the workload corpus: EncodedSize is exactly the
// framed encoding's byte count less the 4-byte CRC of each stream's frame.
func TestEncodedSizeMatchesFramedEncoding(t *testing.T) {
	for _, name := range workloads.Names() {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := mpisim.Run(prog, mpisim.Config{NRanks: 4, Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := run.EncodeFramed(io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := n - 4*int64(len(run.Events)); run.EncodedSize() != want {
			t.Errorf("%s: EncodedSize = %d, framed bytes less CRCs = %d", name, run.EncodedSize(), want)
		}
	}
}
