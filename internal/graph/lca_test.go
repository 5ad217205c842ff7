package graph

import (
	"fmt"
	"math/rand"
	"reflect"
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

// randomSpineDAG builds a DAG from a random spanning spine plus extra
// forward edges, so fan-in varies from tree-like to dense.
func randomSpineDAG(rng *rand.Rand, nv, extraEdges int) *Graph {
	g := New(nv, nv+extraEdges)
	for i := 0; i < nv; i++ {
		g.AddVertex("v", 0)
	}
	for i := 1; i < nv; i++ {
		g.AddEdge(VertexID(rng.Intn(i)), VertexID(i), 0)
	}
	for i := 0; i < extraEdges; i++ {
		a, b := rng.Intn(nv), rng.Intn(nv)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		g.AddEdge(VertexID(a), VertexID(b), 0)
	}
	return g
}

func TestLCADifferentialRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		var g *Graph
		if seed <= 6 {
			g = randomLabeledDAG(rng, n, 4, 0.5*rng.Float64())
		} else {
			g = randomSpineDAG(rng, n, rng.Intn(3*n))
		}
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

// TestAncestorBitsMatchesReverseBFS checks the bitset closure against
// Graph.ReverseBFS, reusing one scratch queue across calls.
func TestAncestorBitsMatchesReverseBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch []VertexID
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(120)
		g := randomSpineDAG(rng, nv, rng.Intn(4*nv))
		for _, v := range []VertexID{0, VertexID(nv / 2), VertexID(nv - 1)} {
			want := make([]uint64, (nv+63)/64)
			g.ReverseBFS(v, func(u VertexID) bool {
				want[u>>6] |= 1 << (uint(u) & 63)
				return true
			})
			got := make([]uint64, len(want))
			scratch = g.AncestorBits(v, got, scratch)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d vertex %d: AncestorBits %x, ReverseBFS %x", trial, v, got, want)
			}
		}
	}
}

// TestDAGOf pins what the DAG passes run on: the graph itself when
// acyclic, or a back-edge-free copy whose edges translate to the original.
func TestDAGOf(t *testing.T) {
	g := New(4, 4)
	g.AddVertex("a", 0)
	g.AddVertex("b", 0)
	g.AddVertex("c", 0)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	if dag, orig := DAGOf(g); dag != g || orig != nil {
		t.Fatal("an acyclic graph must be its own DAG")
	}

	g.AddEdge(2, 1, 0) // closes the cycle b -> c -> b
	dag, orig := DAGOf(g)
	if dag == g || dag.HasCycle() || dag.NumEdges() != 2 {
		t.Fatalf("cyclic graph: DAG has %d edges, want an acyclic 2-edge copy", dag.NumEdges())
	}
	for i, e := range orig {
		if d, o := dag.Edge(EdgeID(i)), g.Edge(e); d.Src != o.Src || d.Dst != o.Dst {
			t.Errorf("copy edge %d translates to %d: %d->%d vs %d->%d", i, e, d.Src, d.Dst, o.Src, o.Dst)
		}
	}
	if v, _, _ := NewLCAFinder(dag).Query(1, 2); v != 1 {
		t.Errorf("LCA(b, c) = %d, want b", v)
	}
}

// TestLCAFinderHybridQueriesUnchanged queries two independent finders on
// random spine DAGs in the same order: their answers must agree, and every
// LCA found must be an ancestor of the first query vertex.
func TestLCAFinderHybridQueriesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nv := 3 + rng.Intn(60)
		g := randomSpineDAG(rng, nv, rng.Intn(3*nv))
		f := NewLCAFinder(g)
		ref := NewLCAFinder(g)
		for i := 0; i < 10; i++ {
			a, b := VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv))
			got, _, _ := f.Query(a, b)
			want, _, _ := ref.Query(a, b)
			if got != want {
				t.Fatalf("trial %d Query(%d,%d): %d != %d", trial, a, b, got, want)
			}
			if got != NoVertex {
				anc := make([]uint64, (nv+63)/64)
				g.AncestorBits(a, anc, nil)
				if anc[int(got)>>6]&(1<<(uint(got)&63)) == 0 {
					t.Fatalf("trial %d: LCA %d not an ancestor of %d", trial, got, a)
				}
			}
		}
	}
}
