package pag

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"perflow/internal/mpisim"
	"perflow/internal/workloads"
)

func serializePAG(t *testing.T, p *PAG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.G.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestShardedBuildIdenticalAcrossParallelism is the byte-identity contract
// of the sharded builder: the parallel view serialized from a Parallelism=N
// build must equal the Parallelism=1 build bit for bit, for every workload.
// Run under -race this also exercises the worker pool for data races.
func TestShardedBuildIdenticalAcrossParallelism(t *testing.T) {
	for _, name := range []string{"cg", "ep", "lu", "zeusmp"} {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := mpisim.Run(prog, mpisim.Config{NRanks: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: 1}))
		for _, par := range []int{2, 8} {
			got := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: par}))
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: Parallelism=%d build differs from sequential (%d vs %d bytes)",
					name, par, len(got), len(want))
			}
		}
		// The default entry point must be the same graph too.
		if got := serializePAG(t, BuildParallel(run)); !bytes.Equal(want, got) {
			t.Fatalf("%s: BuildParallel differs from Parallelism=1 build", name)
		}
	}
}

// TestShardedBuildIdenticalWithThreads covers the fork/join and resource-
// vertex phases: a threaded workload with lock contention must also build
// byte-identically at every parallelism level.
func TestShardedBuildIdenticalWithThreads(t *testing.T) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 4, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: 1}))
	for _, par := range []int{3, 8} {
		got := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: par}))
		if !bytes.Equal(want, got) {
			t.Fatalf("vite: Parallelism=%d build differs from sequential", par)
		}
	}
}

// table1 lists the paper's Table-1 programs.
var table1 = []string{"bt", "cg", "ep", "ft", "mg", "sp", "lu", "is", "zeusmp", "lammps", "vite"}

// TestEmbedRunParallelIdenticalAcrossParallelism checks that sharded data
// embedding produces the same top-down view at every worker count (the
// shard merge is rank-ordered, so float accumulation order is fixed). Rank
// counts of 7 and 64 at Parallelism 3 leave the accumulator window of
// 2×workers partly filled in the last round.
func TestEmbedRunParallelIdenticalAcrossParallelism(t *testing.T) {
	for _, name := range table1 {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 7, 64} {
			run, err := mpisim.Run(prog, mpisim.Config{NRanks: ranks, Threads: 4})
			if err != nil {
				continue // the program does not run at this size
			}
			embed := func(par int) []byte {
				td := BuildTopDown(prog)
				td.EmbedRunParallel(run, PMUModel{}, BuildOptions{Parallelism: par})
				return serializePAG(t, td)
			}
			want := embed(1)
			for _, par := range []int{2, 3, 8} {
				if got := embed(par); !bytes.Equal(want, got) {
					t.Fatalf("%s@%d: EmbedRunParallel at Parallelism=%d differs from sequential", name, ranks, par)
				}
			}
		}
	}
}

// TestEmbedRunParallelStalledWorker stalls the worker that received rank 0
// before it fills its slot, long enough for the other worker to finish
// every rank it can get. A rank that shares rank 0's slot must not start
// until rank 0 is merged, or its accumulators would merge as rank 0's and
// swap the two ranks' _vec entries.
func TestEmbedRunParallelStalledWorker(t *testing.T) {
	prog, err := workloads.Get("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpisim.Run(prog, mpisim.Config{NRanks: 16})
	if err != nil {
		t.Fatal(err)
	}
	embed := func(par int) []byte {
		td := BuildTopDown(prog)
		td.EmbedRunParallel(run, PMUModel{}, BuildOptions{Parallelism: par})
		return serializePAG(t, td)
	}
	want := embed(1)
	embedFillHook = func(rank int) {
		if rank == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	defer func() { embedFillHook = nil }()
	if got := embed(2); !bytes.Equal(want, got) {
		t.Fatal("EmbedRunParallel with a stalled worker differs from sequential")
	}
}

// TestEmbedRunParallelMemoryBound checks the accumulator window: embedding
// 64 ranks on 2 workers holds at most 2×workers |V|-sized accumulator
// arrays, far below one per rank.
func TestEmbedRunParallelMemoryBound(t *testing.T) {
	prog, err := workloads.Get("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpisim.Run(prog, mpisim.Config{NRanks: 64})
	if err != nil {
		t.Fatal(err)
	}
	td := BuildTopDown(prog)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	td.EmbedRunParallel(run, PMUModel{}, BuildOptions{Parallelism: 2})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := 8 * uint64(td.G.NumVertices()) * uint64(unsafe.Sizeof(embedAcc{}))
	t.Logf("embed allocated %d bytes, limit %d (|V| = %d)", got, limit, td.G.NumVertices())
	if got >= limit {
		t.Fatalf("embed allocated %d bytes, want < %d (8 × |V| × accumulator size)", got, limit)
	}
}
