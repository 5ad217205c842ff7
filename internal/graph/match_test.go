package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// chainQuery is the pattern a(la) -> b(lb) -> c(any).
func chainQuery(la, lb int) *Graph {
	q := New(3, 2)
	q.AddVertex("a", la)
	q.AddVertex("b", lb)
	q.AddVertex("c", WildcardLabel)
	q.AddEdge(0, 1, WildcardLabel)
	q.AddEdge(1, 2, WildcardLabel)
	return q
}

func TestMatchLabelIndexEquivalence(t *testing.T) {
	// The label-index candidate path and the naive full-scan path must
	// produce identical embeddings, in identical order.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		data := randomLabeledDAG(rng, 20+rng.Intn(30), 3, 0.25)
		q := chainQuery(rng.Intn(3), rng.Intn(3))

		indexed := MatchSubgraph(data, q, MatchOptions{})
		naive := MatchSubgraph(data, q, MatchOptions{DisableLabelPruning: true})
		if !reflect.DeepEqual(indexed, naive) {
			t.Fatalf("seed %d: indexed and naive matching disagree: %d vs %d embeddings",
				seed, len(indexed), len(naive))
		}
		// The index holds exactly the vertices of each label, ID-ascending.
		for label := 0; label < 3; label++ {
			want := data.VerticesWhere(func(v *Vertex) bool { return v.Label == label })
			if got := data.verticesWithLabel(label); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: verticesWithLabel(%d) = %v, want %v", seed, label, got, want)
			}
		}
	}
}

// TestMatchLabelIndexRebuiltAfterMutation adds vertices between two
// matches: the second must see them, so the label index cannot be stale.
func TestMatchLabelIndexRebuiltAfterMutation(t *testing.T) {
	data := New(8, 8)
	a := data.AddVertex("a", 1)
	b := data.AddVertex("b", 2)
	c := data.AddVertex("c", 0)
	data.AddEdge(a, b, 0)
	data.AddEdge(b, c, 0)
	q := chainQuery(1, 2)
	if got := MatchSubgraph(data, q, MatchOptions{}); len(got) != 1 {
		t.Fatalf("before mutation: %d embeddings, want 1", len(got))
	}

	a2 := data.AddVertex("a2", 1)
	b2 := data.AddVertex("b2", 2)
	data.AddEdge(a2, b2, 0)
	data.AddEdge(b2, c, 0)
	got := MatchSubgraph(data, q, MatchOptions{})
	want := MatchSubgraph(data, q, MatchOptions{DisableLabelPruning: true})
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutation: %d embeddings %v, want %v", len(got), got, want)
	}
}

// TestMatchSubgraphConcurrent runs anchored and global matches from several
// goroutines on one graph whose label index is not yet built, as the
// contention pass's concurrent callers do.
func TestMatchSubgraphConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randomLabeledDAG(rng, 60, 3, 0.1)
	q := chainQuery(0, 1)
	want := MatchSubgraph(data.Clone(), q, MatchOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if got := MatchSubgraph(data, q, MatchOptions{}); !reflect.DeepEqual(got, want) {
				t.Errorf("worker %d: %d embeddings, want %d", w, len(got), len(want))
			}
			// Anchored on v, the match yields exactly the global embeddings
			// that map query vertex 0 to v, in the same order.
			anchor := VertexID(w)
			var wantAnchored []Embedding
			for _, e := range want {
				if e.VertexMap[0] == anchor {
					wantAnchored = append(wantAnchored, e)
				}
			}
			got := MatchSubgraph(data, q, MatchOptions{Anchors: []VertexID{anchor}})
			if !reflect.DeepEqual(got, wantAnchored) {
				t.Errorf("worker %d: anchored %v, want %v", w, got, wantAnchored)
			}
		}(w)
	}
	wg.Wait()
}

// TestMatchAnchorsEqualPerAnchorCalls checks one search over many anchors
// against one single-anchor search per anchor: the same embeddings in the
// same order, with MaxEmbeddings applied per anchor. The anchors are every
// vertex (label-incompatible ones included), a repeat, and one outside the
// graph, which leaves query vertex 0 unconstrained.
func TestMatchAnchorsEqualPerAnchorCalls(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		data := randomLabeledDAG(rng, 30+rng.Intn(30), 3, 0.2)
		q := chainQuery(rng.Intn(3), WildcardLabel)
		var anchors []VertexID
		for v := 0; v < data.NumVertices(); v++ {
			anchors = append(anchors, VertexID(v))
		}
		anchors = append(anchors, 3, VertexID(data.NumVertices()+5), 3)
		for _, max := range []int{0, 1, 2} {
			var want []Embedding
			for _, a := range anchors {
				want = append(want, MatchSubgraph(data, q, MatchOptions{Anchors: []VertexID{a}, MaxEmbeddings: max})...)
			}
			got := MatchSubgraph(data, q, MatchOptions{Anchors: anchors, MaxEmbeddings: max})
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d max %d: %d embeddings over all anchors, %d from per-anchor calls",
					seed, max, len(got), len(want))
			}
		}
	}
}

// TestFrozenAdjacencyAndIndexes checks the adjacency lists and indexes the
// graph algorithms read: out/in edge lists agree with the edge endpoints and
// with Successors/Predecessors, every name resolves, and the label index
// holds exactly the vertices of each label, ID-ascending.
func TestFrozenAdjacencyAndIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomLabeledDAG(rng, 40, 5, 0.15)

	inCount := 0
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		succ, pred := g.Successors(id), g.Predecessors(id)
		if len(succ) != g.OutDegree(id) || len(pred) != g.InDegree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i, eid := range g.OutEdges(id) {
			if e := g.Edge(eid); e.Src != id || e.Dst != succ[i] {
				t.Fatalf("OutEdges(%d)[%d] = %d->%d, want %d->%d", v, i, e.Src, e.Dst, id, succ[i])
			}
		}
		for i, eid := range g.InEdges(id) {
			if e := g.Edge(eid); e.Dst != id || e.Src != pred[i] {
				t.Fatalf("InEdges(%d)[%d] = %d->%d, want %d->%d", v, i, e.Src, e.Dst, pred[i], id)
			}
		}
		inCount += g.InDegree(id)
		if g.FindVertexByName(g.Vertex(id).Name) != id {
			t.Fatalf("FindVertexByName(%q) missed", g.Vertex(id).Name)
		}
	}
	if inCount != g.NumEdges() {
		t.Fatalf("in-edge lists hold %d edges, want %d", inCount, g.NumEdges())
	}
	for label := 0; label < 5; label++ {
		want := g.VerticesWhere(func(v *Vertex) bool { return v.Label == label })
		got := g.verticesWithLabel(label)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("verticesWithLabel(%d) = %v, want %v", label, got, want)
		}
	}
}
