package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// ---- reference implementations ----
//
// refLCA is the pre-bitset LCA finder (boolean ancestor slices recomputed
// per query) kept verbatim as a differential-testing oracle for the packed
// []uint64 implementation.

type refLCA struct {
	g      *Graph
	depths []int
	valid  bool
}

func newRefLCA(g *Graph) *refLCA {
	depths, ok := g.Depths()
	return &refLCA{g: g, depths: depths, valid: ok}
}

func (f *refLCA) ancestors(v VertexID) []bool {
	anc := make([]bool, f.g.NumVertices())
	f.g.ReverseBFS(v, func(u VertexID) bool {
		anc[u] = true
		return true
	})
	return anc
}

func (f *refLCA) Query(a, b VertexID) (lca VertexID, pathA, pathB []EdgeID) {
	if !f.valid || !f.g.HasVertex(a) || !f.g.HasVertex(b) {
		return NoVertex, nil, nil
	}
	ancA := f.ancestors(a)
	ancB := f.ancestors(b)
	lca = NoVertex
	best := -1
	for i := range ancA {
		if ancA[i] && ancB[i] && f.depths[i] > best {
			best = f.depths[i]
			lca = VertexID(i)
		}
	}
	if lca == NoVertex {
		return NoVertex, nil, nil
	}
	return lca, f.pathDown(lca, a, ancA), f.pathDown(lca, b, ancB)
}

func (f *refLCA) pathDown(src, dst VertexID, anc []bool) []EdgeID {
	if src == dst {
		return nil
	}
	g := f.g
	parentEdge := make([]EdgeID, g.NumVertices())
	for i := range parentEdge {
		parentEdge[i] = NoEdge
	}
	seen := make([]bool, g.NumVertices())
	seen[src] = true
	queue := []VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			break
		}
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			if seen[d] || !anc[d] {
				continue
			}
			seen[d] = true
			parentEdge[d] = eid
			queue = append(queue, d)
		}
	}
	if !seen[dst] {
		return nil
	}
	var rev []EdgeID
	for v := dst; v != src; {
		eid := parentEdge[v]
		rev = append(rev, eid)
		v = g.edges[eid].Src
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// randomLabeledDAG builds a DAG with edges only from lower to higher IDs,
// labels drawn from [0, nlabels).
func randomLabeledDAG(rng *rand.Rand, n, nlabels int, p float64) *Graph {
	g := New(n, n*4)
	for i := 0; i < n; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i), rng.Intn(nlabels))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(VertexID(i), VertexID(j), rng.Intn(3))
			}
		}
	}
	return g
}

func TestLCADifferentialRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := randomLabeledDAG(rng, n, 4, 0.5*rng.Float64())
		ref := newRefLCA(g)
		fast := NewLCAFinder(g)
		if ref.valid != fast.Valid() {
			t.Fatalf("seed %d: validity mismatch ref=%v fast=%v", seed, ref.valid, fast.Valid())
		}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				wantL, wantA, wantB := ref.Query(VertexID(a), VertexID(b))
				gotL, gotA, gotB := fast.Query(VertexID(a), VertexID(b))
				if wantL != gotL {
					t.Fatalf("seed %d: lca(%d,%d) ref=%d fast=%d", seed, a, b, wantL, gotL)
				}
				if !reflect.DeepEqual(wantA, gotA) || !reflect.DeepEqual(wantB, gotB) {
					t.Fatalf("seed %d: paths for (%d,%d) differ: ref (%v,%v) fast (%v,%v)",
						seed, a, b, wantA, wantB, gotA, gotB)
				}
			}
		}
	}
}

func TestLCABitsetCachedQueriesConsistent(t *testing.T) {
	// Repeated queries must return the same answers (ancestor bitsets and
	// scratch are reused across calls).
	rng := rand.New(rand.NewSource(42))
	g := randomLabeledDAG(rng, 30, 3, 0.2)
	f := NewLCAFinder(g)
	type res struct {
		lca    VertexID
		pa, pb []EdgeID
	}
	first := map[[2]VertexID]res{}
	for round := 0; round < 3; round++ {
		for a := 0; a < 30; a += 3 {
			for b := 0; b < 30; b += 3 {
				l, pa, pb := f.Query(VertexID(a), VertexID(b))
				k := [2]VertexID{VertexID(a), VertexID(b)}
				if round == 0 {
					first[k] = res{l, pa, pb}
					continue
				}
				w := first[k]
				if w.lca != l || !reflect.DeepEqual(w.pa, pa) || !reflect.DeepEqual(w.pb, pb) {
					t.Fatalf("query (%d,%d) unstable across rounds", a, b)
				}
			}
		}
	}
}

func TestMatchLabelIndexEquivalence(t *testing.T) {
	// The label-index candidate path and the naive full-scan path must
	// produce identical embeddings, in identical order.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		data := randomLabeledDAG(rng, 20+rng.Intn(30), 3, 0.25)
		q := New(3, 3)
		q.AddVertex("a", rng.Intn(3))
		q.AddVertex("b", rng.Intn(3))
		q.AddVertex("c", WildcardLabel)
		q.AddEdge(0, 1, WildcardLabel)
		q.AddEdge(1, 2, WildcardLabel)

		indexed := MatchSubgraph(data, q, MatchOptions{})
		naive := MatchSubgraph(data, q, MatchOptions{DisableLabelPruning: true})
		if !reflect.DeepEqual(indexed, naive) {
			t.Fatalf("seed %d: indexed and naive matching disagree: %d vs %d embeddings",
				seed, len(indexed), len(naive))
		}
	}
}

func TestFrozenAdjacencyAndIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomLabeledDAG(rng, 40, 5, 0.15)
	f := g.Frozen()

	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		if !reflect.DeepEqual(append([]VertexID{}, f.OutNeighbors(id)...), g.Successors(id)) {
			t.Fatalf("OutNeighbors(%d) != Successors", v)
		}
		if !reflect.DeepEqual(append([]VertexID{}, f.InNeighbors(id)...), g.Predecessors(id)) {
			t.Fatalf("InNeighbors(%d) != Predecessors", v)
		}
		fe, ge := f.OutEdgeIDs(id), g.OutEdges(id)
		if len(fe) != len(ge) {
			t.Fatalf("OutEdgeIDs(%d): %d edges, want %d", v, len(fe), len(ge))
		}
		for i := range fe {
			if fe[i] != ge[i] {
				t.Fatalf("OutEdgeIDs(%d)[%d] = %d, want %d", v, i, fe[i], ge[i])
			}
		}
		if f.OutDegree(id) != g.OutDegree(id) || f.InDegree(id) != g.InDegree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
		if f.VertexByName(g.Vertex(id).Name) == NoVertex {
			t.Fatalf("VertexByName(%q) missed", g.Vertex(id).Name)
		}
	}
	// Label index: exactly the vertices with that label, ID-ascending.
	for label := 0; label < 5; label++ {
		want := g.VerticesWhere(func(v *Vertex) bool { return v.Label == label })
		got := f.VerticesWithLabel(label)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]VertexID{}, got...), want) {
			t.Fatalf("VerticesWithLabel(%d) = %v, want %v", label, got, want)
		}
	}
}

func TestFrozenTraversalsMatchGraph(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g := randomLabeledDAG(rng, 10+rng.Intn(50), 3, 0.2)
		f := g.Frozen()

		for v := 0; v < g.NumVertices(); v += 5 {
			var want, got []VertexID
			g.BFS(VertexID(v), func(u VertexID) bool { want = append(want, u); return true })
			f.BFS(VertexID(v), func(u VertexID) bool { got = append(got, u); return true })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: BFS(%d) order differs", seed, v)
			}
			want, got = nil, nil
			g.ReverseBFS(VertexID(v), func(u VertexID) bool { want = append(want, u); return true })
			f.ReverseBFS(VertexID(v), func(u VertexID) bool { got = append(got, u); return true })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: ReverseBFS(%d) order differs", seed, v)
			}
		}

		wantOrder, wantOK := g.TopoSort()
		gotOrder, gotOK := f.TopoSort()
		if wantOK != gotOK || !reflect.DeepEqual(wantOrder, gotOrder) {
			t.Fatalf("seed %d: TopoSort differs", seed)
		}

		for v := 0; v < g.NumVertices(); v++ {
			g.Vertex(VertexID(v)).SetMetric("w", rng.Float64()*10)
		}
		for e := 0; e < g.NumEdges(); e++ {
			g.Edge(EdgeID(e)).SetMetric("w", rng.Float64())
		}
		wf := func(v *Vertex) float64 { return v.Metric("w") }
		ef := func(e *Edge) float64 { return e.Metric("w") }
		wv, we, wt := g.CriticalPath(wf, ef)
		gv, ge, gt := f.CriticalPath(wf, ef)
		if wt != gt || !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(we, ge) {
			t.Fatalf("seed %d: CriticalPath differs: (%v,%v,%v) vs (%v,%v,%v)",
				seed, wv, we, wt, gv, ge, gt)
		}
	}
}

func TestFrozenEarlyStopResetsScratch(t *testing.T) {
	// An early-stopped traversal must still leave the pooled seen-array
	// clean for the next user.
	g := New(6, 8)
	for i := 0; i < 6; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i), 0)
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1), 0)
	}
	f := g.Frozen()
	var got []VertexID
	f.BFS(0, func(v VertexID) bool { got = append(got, v); return len(got) < 2 })
	if len(got) != 2 {
		t.Fatalf("early stop visited %d", len(got))
	}
	got = nil
	f.BFS(0, func(v VertexID) bool { got = append(got, v); return true })
	if len(got) != 6 {
		t.Fatalf("traversal after early stop visited %d, want 6 (stale seen bits)", len(got))
	}
}

func TestFrozenInvalidation(t *testing.T) {
	g := New(4, 4)
	g.AddVertex("a", 0)
	g.AddVertex("b", 0)
	g.AddEdge(0, 1, 0)
	f := g.Frozen()
	if f.VertexByName("a") != 0 {
		t.Fatal("name lookup failed")
	}
	if g.Frozen() != f {
		t.Fatal("unmutated graph must return the cached snapshot")
	}

	g.AddVertex("c", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale Frozen view must panic after AddVertex")
			}
		}()
		f.VertexByName("a")
	}()

	f2 := g.Frozen()
	if f2 == f {
		t.Fatal("Frozen after mutation must rebuild")
	}
	if f2.VertexByName("c") != 2 {
		t.Fatal("rebuilt snapshot missing new vertex")
	}

	g.AddEdge(1, 2, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale Frozen view must panic after AddEdge")
			}
		}()
		f2.OutNeighbors(0)
	}()
}

// TestFrozenDAGCachedPerSnapshot pins the lifetime of the DAG and LCA
// artifacts: the graph itself when acyclic, a back-edge-free copy whose
// edges translate to the original when cyclic, built once per snapshot
// and rebuilt after a structural mutation.
func TestFrozenDAGCachedPerSnapshot(t *testing.T) {
	g := New(4, 4)
	g.AddVertex("a", 0)
	g.AddVertex("b", 0)
	g.AddVertex("c", 0)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	if dag, orig := g.Frozen().DAG(); dag != g || orig != nil {
		t.Fatal("an acyclic graph must be its own DAG")
	}

	g.AddEdge(2, 1, 0) // closes the cycle b -> c -> b
	f := g.Frozen()
	// Concurrent passes over one PAG build the artifacts on first use.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lca, _, mu := f.LCA()
			mu.Lock()
			defer mu.Unlock()
			if v, _, _ := lca.Query(1, 2); v != 1 {
				t.Errorf("LCA(b, c) = %d, want b", v)
			}
		}()
	}
	wg.Wait()
	dag, orig := f.DAG()
	if dag == g || !dag.Frozen().Acyclic() || dag.NumEdges() != 2 {
		t.Fatalf("cyclic graph: DAG has %d edges, want an acyclic 2-edge copy", dag.NumEdges())
	}
	for i, e := range orig {
		if d, o := dag.Edge(EdgeID(i)), g.Edge(e); d.Src != o.Src || d.Dst != o.Dst {
			t.Errorf("copy edge %d translates to %d: %d->%d vs %d->%d", i, e, d.Src, d.Dst, o.Src, o.Dst)
		}
	}
	if again, _ := f.DAG(); again != dag {
		t.Error("DAG rebuilt within one snapshot")
	}
	lca, _, _ := f.LCA()
	if again, _, _ := f.LCA(); again != lca || !lca.Valid() {
		t.Error("LCA finder must be valid and built once per snapshot")
	}

	g.AddVertex("d", 0)
	if fresh, _ := g.Frozen().DAG(); fresh == dag {
		t.Error("DAG survived a structural mutation")
	}
}

func TestFindVertexByNameRouting(t *testing.T) {
	g := New(8, 8)
	for i := 0; i < 8; i++ {
		g.AddVertex(fmt.Sprintf("n%d", i), 0)
	}
	// Mutable path (no snapshot yet): linear scan.
	if got := g.FindVertexByName("n5"); got != 5 {
		t.Fatalf("scan path: got %d", got)
	}
	// Snapshot current: index path must agree.
	g.Frozen()
	if got := g.FindVertexByName("n5"); got != 5 {
		t.Fatalf("index path: got %d", got)
	}
	if got := g.FindVertexByName("missing"); got != NoVertex {
		t.Fatalf("index path miss: got %d", got)
	}
	// Mutation falls back to the scan (stale snapshot must not be used).
	g.AddVertex("late", 0)
	if got := g.FindVertexByName("late"); got != 8 {
		t.Fatalf("fallback path: got %d", got)
	}
}
