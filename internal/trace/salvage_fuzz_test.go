package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"perflow/internal/ir"
)

// fuzzSampleRun builds a small two-rank run whose encoding seeds the
// corpus: every fuzz mutation starts from at least one well-formed trace.
func fuzzSampleRun() *Run {
	return &Run{
		NRanks: 2,
		Events: [][]Event{
			{
				{Rank: 0, Thread: -1, Kind: KindCompute, Node: 1, Ctx: 0, Start: 0, End: 10},
				{Rank: 0, Thread: -1, Kind: KindComm, Op: ir.CommSend, Node: 2, Ctx: 1,
					Start: 10, End: 14, Wait: 1, Peer: 1, Bytes: 4096, Count: 1},
			},
			{
				{Rank: 1, Thread: -1, Kind: KindComm, Op: ir.CommRecv, Node: 3, Ctx: 2,
					Start: 0, End: 14, Wait: 9, Peer: 0, Bytes: 4096, Count: 1},
			},
		},
		Elapsed: []float64{14, 14},
	}
}

// mutateFramed returns the framed sample encoding with 4 bytes
// overwritten at off.
func mutateFramed(tb testing.TB, off int, val uint32) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := fuzzSampleRun().EncodeFramed(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[off:], val)
	return b
}

// FuzzSalvage asserts the salvage decoder's contract on arbitrary bytes:
// it never panics, never returns nil, never over-allocates from hostile
// counts, and an input it reports Complete round-trips through
// EncodeFramed ∘ Salvage unchanged. Interesting crashers are checked in
// under testdata/fuzz/FuzzSalvage, among them a huge event rank (a
// multi-GiB Elapsed allocation) and a huge stream count with no payload
// behind it.
func FuzzSalvage(f *testing.F) {
	var buf bytes.Buffer
	if _, err := fuzzSampleRun().EncodeFramed(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:16]...))           // header only
	f.Add(append([]byte(nil), valid[:len(valid)-7]...)) // truncated mid-event
	f.Add(append([]byte(nil), valid[:47]...))           // truncated mid-first-event
	f.Add(mutateFramed(f, 8, 1<<31))                    // implausible stream count
	f.Add(mutateFramed(f, 12, 1<<31))                   // implausible rank count
	f.Add(mutateFramed(f, 16, 1<<30))                   // corrupt frame count
	f.Add(mutateFramed(f, 20, 0xffffffff))              // first event rank = -1
	f.Add(mutateFramed(f, 16+4+20, 0xdeadbeef))         // payload flip -> CRC mismatch
	f.Add(mutateFramed(f, len(valid)-4, 0))             // last CRC flipped
	f.Add(mutateFramed(f, 20, 1<<30))                   // first event rank huge
	f.Add(mutateFramed(f, 8, 1<<19)[:16])               // huge stream count, no payload

	f.Fuzz(func(t *testing.T, data []byte) {
		run, rep := Salvage(bytes.NewReader(data))
		if run == nil || rep == nil {
			t.Fatal("Salvage returned nil")
		}
		// The recovered run must survive the read-side API.
		_ = run.TotalTime()
		_ = run.ComputeStats()
		_ = run.Degraded()
		_ = rep.String()
		if rep.Complete {
			if run.Status != nil {
				t.Fatalf("Complete run carries Status %+v", run.Status)
			}
			var re bytes.Buffer
			if _, err := run.EncodeFramed(&re); err != nil {
				t.Fatalf("re-encode of complete salvage failed: %v", err)
			}
			run2, rep2 := Salvage(bytes.NewReader(re.Bytes()))
			if !rep2.Complete {
				t.Fatalf("re-encoded complete run salvaged incomplete: %+v", rep2)
			}
			if !reflect.DeepEqual(run.Events, run2.Events) {
				t.Fatal("Salvage ∘ EncodeFramed not a fixed point on complete input")
			}
		}
		for _, s := range rep.Streams {
			if s.Recovered < 0 || s.Lost < 0 {
				t.Fatalf("negative stream counts: %+v", s)
			}
		}
	})
}
