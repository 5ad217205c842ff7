package graph

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLCATree(t *testing.T) {
	// Tree:        0
	//            /   \
	//           1     2
	//          / \     \
	//         3   4     5
	g := New(6, 5)
	for i := 0; i < 6; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(1, 4, 0)
	g.AddEdge(2, 5, 0)
	f := NewLCAFinder(g)
	if !f.Valid() {
		t.Fatal("finder invalid on tree")
	}
	cases := []struct{ a, b, want VertexID }{
		{3, 4, 1}, {3, 5, 0}, {4, 5, 0}, {1, 4, 1}, {3, 3, 3}, {0, 5, 0},
	}
	for _, c := range cases {
		got, pa, pb := f.Query(c.a, c.b)
		if got != c.want {
			t.Errorf("LCA(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		checkPath(t, g, got, c.a, pa)
		checkPath(t, g, got, c.b, pb)
	}
}

// checkPath verifies that path is a connected edge sequence src -> ... -> dst.
func checkPath(t *testing.T, g *Graph, src, dst VertexID, path []EdgeID) {
	t.Helper()
	cur := src
	for _, eid := range path {
		e := g.Edge(eid)
		if e.Src != cur {
			t.Errorf("path discontinuity: edge %d starts at %d, expected %d", eid, e.Src, cur)
			return
		}
		cur = e.Dst
	}
	if cur != dst {
		t.Errorf("path ends at %d, want %d", cur, dst)
	}
}

func TestLCADAGDeepest(t *testing.T) {
	// DAG where both 0 and 2 are common ancestors of {3,4}; 2 is deeper.
	//  0 -> 1 -> 3
	//  0 -> 2 -> 3
	//       2 -> 4
	//  1 -> 2   (makes depth(2) = 2)
	g := New(5, 6)
	for i := 0; i < 5; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(2, 4, 0)
	g.AddEdge(1, 2, 0)
	f := NewLCAFinder(g)
	got, pa, pb := f.Query(3, 4)
	if got != 2 {
		t.Fatalf("LCA(3,4) = %d, want 2 (the deepest)", got)
	}
	checkPath(t, g, 2, 3, pa)
	checkPath(t, g, 2, 4, pb)
}

func TestLCADisconnected(t *testing.T) {
	g := New(4, 2)
	for i := 0; i < 4; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(2, 3, 0)
	f := NewLCAFinder(g)
	if got, _, _ := f.Query(1, 3); got != NoVertex {
		t.Errorf("LCA of disconnected = %d, want NoVertex", got)
	}
}

func TestLCACyclicInvalid(t *testing.T) {
	g := New(2, 2)
	g.AddVertex("a", 0)
	g.AddVertex("b", 0)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 0)
	f := NewLCAFinder(g)
	if f.Valid() {
		t.Error("finder should be invalid on cyclic graph")
	}
	if got, _, _ := f.Query(0, 1); got != NoVertex {
		t.Errorf("cyclic query = %d, want NoVertex", got)
	}
}

func TestLCAQueryAll(t *testing.T) {
	g := New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(1, 4, 0)
	f := NewLCAFinder(g)
	got := f.QueryAll([]VertexID{2, 3, 4})
	// LCA(2,3)=0, LCA(2,4)=0, LCA(3,4)=1 → {0, 1}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("QueryAll = %v, want [0 1]", got)
	}
}

// Property: on random DAGs the reported LCA is a common ancestor of both
// queries and at least as deep as any other common ancestor.
func TestLCAProperty(t *testing.T) {
	f := func(seed int64, ar, br uint8) bool {
		g := randomDAG(18, 0.18, seed)
		a := VertexID(int(ar) % g.NumVertices())
		b := VertexID(int(br) % g.NumVertices())
		fd := NewLCAFinder(g)
		lca, pa, pb := fd.Query(a, b)
		ancA := ancestorSet(g, a)
		ancB := ancestorSet(g, b)
		if lca == NoVertex {
			for i := range ancA {
				if ancA[i] && ancB[i] {
					return false // missed a common ancestor
				}
			}
			return true
		}
		if !ancA[lca] || !ancB[lca] {
			return false
		}
		depths, _ := g.Depths()
		for i := range ancA {
			if ancA[i] && ancB[i] && depths[i] > depths[lca] {
				return false
			}
		}
		// Paths must connect lca to each query.
		return pathOK(g, lca, a, pa) && pathOK(g, lca, b, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ancestorSet(g *Graph, v VertexID) []bool {
	anc := make([]bool, g.NumVertices())
	g.ReverseBFS(v, func(u VertexID) bool { anc[u] = true; return true })
	return anc
}

func pathOK(g *Graph, src, dst VertexID, path []EdgeID) bool {
	cur := src
	for _, eid := range path {
		e := g.Edge(eid)
		if e.Src != cur {
			return false
		}
		cur = e.Dst
	}
	return cur == dst
}

func TestCriticalPathChain(t *testing.T) {
	g := chainGraph(4)
	for i := 0; i < 4; i++ {
		g.Vertex(VertexID(i)).SetMetric("time", float64(i+1))
	}
	vs, es, w := g.CriticalPath(func(v *Vertex) float64 { return v.Metric("time") }, nil)
	if w != 10 {
		t.Errorf("weight = %v, want 10", w)
	}
	if len(vs) != 4 || len(es) != 3 {
		t.Errorf("path = %v / %v", vs, es)
	}
}

func TestCriticalPathBranch(t *testing.T) {
	// 0 -> 1 -> 3 (weights 1,5,1 = 7) vs 0 -> 2 -> 3 (1,2,1 = 4).
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	w := []float64{1, 5, 2, 1}
	vs, _, total := g.CriticalPath(func(v *Vertex) float64 { return w[v.ID] }, nil)
	if total != 7 {
		t.Errorf("total = %v, want 7", total)
	}
	if len(vs) != 3 || vs[1] != 1 {
		t.Errorf("path should go through vertex 1: %v", vs)
	}
}

func TestCriticalPathEdgeWeights(t *testing.T) {
	g := New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddVertex("v", 0)
	}
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(0, 2, 0)
	g.Edge(e1).SetMetric("wait", 10)
	g.Edge(e2).SetMetric("wait", 1)
	vs, _, total := g.CriticalPath(
		func(*Vertex) float64 { return 1 },
		func(e *Edge) float64 { return e.Metric("wait") })
	if total != 12 || vs[len(vs)-1] != 1 {
		t.Errorf("total = %v path = %v, want 12 ending at 1", total, vs)
	}
}

func TestCriticalPathCyclic(t *testing.T) {
	g := New(2, 2)
	g.AddVertex("a", 0)
	g.AddVertex("b", 0)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 0)
	vs, es, w := g.CriticalPath(func(*Vertex) float64 { return 1 }, nil)
	if vs != nil || es != nil || w != 0 {
		t.Error("critical path on cyclic graph should be empty")
	}
}

func TestShortestPath(t *testing.T) {
	g := New(5, 5)
	for i := 0; i < 5; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(0, 4, 0)
	g.AddEdge(4, 3, 0)
	p := g.ShortestPath(0, 3)
	if len(p) != 2 {
		t.Errorf("shortest path len = %d, want 2", len(p))
	}
	if !pathOK(g, 0, 3, p) {
		t.Errorf("path invalid: %v", p)
	}
	if g.ShortestPath(3, 0) != nil {
		t.Error("unreachable path should be nil")
	}
	if p := g.ShortestPath(2, 2); p == nil || len(p) != 0 {
		t.Errorf("self path should be empty non-nil, got %v", p)
	}
}

func TestCommunityDetectTwoClusters(t *testing.T) {
	// Two triangles joined by one edge.
	g := New(6, 7)
	for i := 0; i < 6; i++ {
		g.AddVertex("v", 0)
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(3, 4, 0)
	g.AddEdge(4, 5, 0)
	g.AddEdge(5, 3, 0)
	g.AddEdge(2, 3, 0)
	comm := g.CommunityDetect(0)
	if comm[0] != comm[1] || comm[1] != comm[2] {
		t.Errorf("first triangle split: %v", comm)
	}
	if comm[3] != comm[4] || comm[4] != comm[5] {
		t.Errorf("second triangle split: %v", comm)
	}
}

func TestCommunityDetectIsolated(t *testing.T) {
	g := New(3, 0)
	for i := 0; i < 3; i++ {
		g.AddVertex("v", 0)
	}
	comm := g.CommunityDetect(5)
	if comm[0] == comm[1] || comm[1] == comm[2] || comm[0] == comm[2] {
		t.Errorf("isolated vertices should keep distinct communities: %v", comm)
	}
}

func TestDiffBasics(t *testing.T) {
	mk := func(times ...float64) *Graph {
		g := New(len(times), 0)
		for i, tm := range times {
			id := g.AddVertex("f", 0)
			g.Vertex(id).SetMetric("time", tm)
			g.Vertex(id).SetAttr("debug", "f.c:1")
			_ = i
		}
		for i := 0; i+1 < len(times); i++ {
			g.AddEdge(VertexID(i), VertexID(i+1), 3)
		}
		return g
	}
	g1 := mk(1, 2, 3)
	g2 := mk(1, 5, 3)
	d := Diff(g1, g2)
	if d.NumVertices() != 3 || d.NumEdges() != 2 {
		t.Fatalf("diff shape wrong: %d/%d", d.NumVertices(), d.NumEdges())
	}
	want := []float64{0, 3, 0}
	for i, w := range want {
		if got := d.Vertex(VertexID(i)).Metric("time"); got != w {
			t.Errorf("diff time[%d] = %v, want %v", i, got, w)
		}
	}
	if d.Edge(0).Label != 3 {
		t.Errorf("edge label not preserved")
	}
	if d.Vertex(0).Attr("debug") != "f.c:1" {
		t.Errorf("attrs not copied")
	}
}

func TestDiffSelfIsZero(t *testing.T) {
	g := randomDAG(20, 0.15, 7)
	for i := 0; i < g.NumVertices(); i++ {
		g.Vertex(VertexID(i)).SetMetric("time", float64(i)*1.5)
		g.Vertex(VertexID(i)).AddVecAt("time", i%4, float64(i))
	}
	d := Diff(g, g)
	for i := 0; i < d.NumVertices(); i++ {
		v := d.Vertex(VertexID(i))
		if v.Metric("time") != 0 {
			t.Errorf("diff(g,g) vertex %d time = %v", i, v.Metric("time"))
		}
		for _, x := range v.Vec("time") {
			if x != 0 {
				t.Errorf("diff(g,g) vec nonzero at %d", i)
			}
		}
	}
}

func TestDiffMissingVertexInG2(t *testing.T) {
	g1 := New(2, 0)
	a := g1.AddVertex("a", 0)
	b := g1.AddVertex("b", 0)
	g1.Vertex(a).SetMetric("time", 4)
	g1.Vertex(b).SetMetric("time", 6)
	g2 := New(1, 0)
	a2 := g2.AddVertex("a", 0)
	g2.Vertex(a2).SetMetric("time", 9)
	d := Diff(g1, g2)
	if d.Vertex(0).Metric("time") != 5 {
		t.Errorf("matched diff = %v, want 5", d.Vertex(0).Metric("time"))
	}
	if d.Vertex(1).Metric("time") != -6 {
		t.Errorf("unmatched diff = %v, want -6", d.Vertex(1).Metric("time"))
	}
}

func TestDiffNormalized(t *testing.T) {
	g1 := New(1, 0)
	g1.Vertex(g1.AddVertex("a", 0)).SetMetric("time", 2)
	g2 := New(1, 0)
	g2.Vertex(g2.AddVertex("a", 0)).SetMetric("time", 8)
	d := DiffNormalized(g1, g2)
	if got := d.Vertex(0).Metric("time"); got != 3 {
		t.Errorf("normalized diff = %v, want 3 (= (8-2)/2)", got)
	}
}

// Property: Diff(g, g) has all-zero scalar metrics.
func TestDiffSelfZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(15, 0.2, seed)
		for i := 0; i < g.NumVertices(); i++ {
			g.Vertex(VertexID(i)).SetMetric("m", float64(seed%97)*float64(i))
		}
		d := Diff(g, g)
		for i := 0; i < d.NumVertices(); i++ {
			if d.Vertex(VertexID(i)).Metric("m") != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatchTrianglePattern(t *testing.T) {
	// Data: two fan-in/fan-out shapes like the paper's contention pattern
	// (A,B) -> C -> (D,E).
	data := New(10, 8)
	for i := 0; i < 10; i++ {
		data.AddVertex("v", 0)
	}
	// First pattern occurrence.
	data.AddEdge(0, 2, 0)
	data.AddEdge(1, 2, 0)
	data.AddEdge(2, 3, 0)
	data.AddEdge(2, 4, 0)
	// Second occurrence.
	data.AddEdge(5, 7, 0)
	data.AddEdge(6, 7, 0)
	data.AddEdge(7, 8, 0)
	data.AddEdge(7, 9, 0)

	query := New(5, 4)
	for i := 0; i < 5; i++ {
		query.AddVertex("q", WildcardLabel)
	}
	query.AddEdge(0, 2, WildcardLabel)
	query.AddEdge(1, 2, WildcardLabel)
	query.AddEdge(2, 3, WildcardLabel)
	query.AddEdge(2, 4, WildcardLabel)

	embs := MatchSubgraph(data, query, MatchOptions{})
	// Each occurrence yields 4 automorphic embeddings (swap sources, swap sinks).
	if len(embs) != 8 {
		t.Fatalf("embeddings = %d, want 8", len(embs))
	}
	for _, e := range embs {
		checkEmbedding(t, data, query, e)
	}
	centers := map[VertexID]bool{}
	for _, e := range embs {
		centers[e.VertexMap[2]] = true
	}
	if !centers[2] || !centers[7] || len(centers) != 2 {
		t.Errorf("pattern centers = %v, want {2, 7}", centers)
	}
}

func checkEmbedding(t *testing.T, data, query *Graph, emb Embedding) {
	t.Helper()
	seen := map[VertexID]bool{}
	for _, v := range emb.VertexMap {
		if seen[v] {
			t.Errorf("embedding not injective: %v", emb.VertexMap)
		}
		seen[v] = true
	}
	for qe := 0; qe < query.NumEdges(); qe++ {
		e := query.Edge(EdgeID(qe))
		want := [2]VertexID{emb.VertexMap[e.Src], emb.VertexMap[e.Dst]}
		de := emb.EdgeMap[qe]
		if de == NoEdge {
			t.Errorf("query edge %d unmapped", qe)
			continue
		}
		d := data.Edge(de)
		if d.Src != want[0] || d.Dst != want[1] {
			t.Errorf("edge map wrong for query edge %d", qe)
		}
	}
}

func TestMatchLabels(t *testing.T) {
	data := New(4, 3)
	data.AddVertex("a", 1)
	data.AddVertex("b", 2)
	data.AddVertex("c", 1)
	data.AddVertex("d", 2)
	data.AddEdge(0, 1, 5)
	data.AddEdge(2, 3, 6)
	data.AddEdge(0, 3, 5)

	q := New(2, 1)
	q.AddVertex("x", 1)
	q.AddVertex("y", 2)
	q.AddEdge(0, 1, 5)
	embs := MatchSubgraph(data, q, MatchOptions{})
	if len(embs) != 2 {
		t.Fatalf("labelled match = %d embeddings, want 2", len(embs))
	}
}

func TestMatchAnchor(t *testing.T) {
	data := New(4, 2)
	for i := 0; i < 4; i++ {
		data.AddVertex("v", 0)
	}
	data.AddEdge(0, 1, 0)
	data.AddEdge(2, 3, 0)
	q := New(2, 1)
	q.AddVertex("a", WildcardLabel)
	q.AddVertex("b", WildcardLabel)
	q.AddEdge(0, 1, WildcardLabel)
	embs := MatchSubgraph(data, q, MatchOptions{Anchor: 2, Anchored: true})
	if len(embs) != 1 || embs[0].VertexMap[0] != 2 {
		t.Fatalf("anchored match wrong: %+v", embs)
	}
}

func TestMatchMaxEmbeddings(t *testing.T) {
	data := chainGraph(10)
	q := New(2, 1)
	q.AddVertex("a", WildcardLabel)
	q.AddVertex("b", WildcardLabel)
	q.AddEdge(0, 1, WildcardLabel)
	embs := MatchSubgraph(data, q, MatchOptions{MaxEmbeddings: 3})
	if len(embs) != 3 {
		t.Errorf("MaxEmbeddings not honored: %d", len(embs))
	}
}

func TestMatchNoPruningSameResult(t *testing.T) {
	data := randomDAG(16, 0.2, 9)
	q := New(3, 2)
	q.AddVertex("a", 0)
	q.AddVertex("b", 1)
	q.AddVertex("c", 2)
	q.AddEdge(0, 1, WildcardLabel)
	q.AddEdge(1, 2, WildcardLabel)
	withP := MatchSubgraph(data, q, MatchOptions{})
	withoutP := MatchSubgraph(data, q, MatchOptions{DisableLabelPruning: true})
	if len(withP) != len(withoutP) {
		t.Errorf("pruning changed result count: %d vs %d", len(withP), len(withoutP))
	}
}

func TestMatchQueryLargerThanData(t *testing.T) {
	data := chainGraph(2)
	q := chainGraph(3)
	if embs := MatchSubgraph(data, q, MatchOptions{}); embs != nil {
		t.Errorf("oversized query should yield nil, got %d", len(embs))
	}
}

func TestEmbeddingSets(t *testing.T) {
	embs := []Embedding{
		{VertexMap: []VertexID{3, 1}, EdgeMap: []EdgeID{0}},
		{VertexMap: []VertexID{1, 2}, EdgeMap: []EdgeID{1, NoEdge}},
	}
	vs := EmbeddingVertexSet(embs)
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Errorf("vertex set = %v", vs)
	}
	es := EmbeddingEdgeSet(embs)
	if len(es) != 2 || es[0] != 0 || es[1] != 1 {
		t.Errorf("edge set = %v", es)
	}
}

// Property: every embedding returned on random data is injective and
// edge-preserving.
func TestMatchEmbeddingValidProperty(t *testing.T) {
	q := New(3, 3)
	q.AddVertex("a", WildcardLabel)
	q.AddVertex("b", WildcardLabel)
	q.AddVertex("c", WildcardLabel)
	q.AddEdge(0, 1, WildcardLabel)
	q.AddEdge(1, 2, WildcardLabel)
	q.AddEdge(0, 2, WildcardLabel)
	f := func(seed int64) bool {
		data := randomDAG(14, 0.25, seed)
		embs := MatchSubgraph(data, q, MatchOptions{MaxEmbeddings: 50})
		for _, emb := range embs {
			seen := map[VertexID]bool{}
			for _, v := range emb.VertexMap {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			for qe := 0; qe < q.NumEdges(); qe++ {
				e := q.Edge(EdgeID(qe))
				if data.FindEdge(emb.VertexMap[e.Src], emb.VertexMap[e.Dst]) == NoEdge {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g := randomDAG(30, 0.15, 11)
	for i := 0; i < g.NumVertices(); i++ {
		v := g.Vertex(VertexID(i))
		v.SetMetric("time", float64(i)*1.25)
		v.SetAttr("debug", "file.c:42")
		v.AddVecAt("time", i%5, float64(i))
	}
	for i := 0; i < g.NumEdges(); i++ {
		g.Edge(EdgeID(i)).SetMetric("bytes", float64(i))
		g.Edge(EdgeID(i)).SetAttr("kind", "comm")
	}
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < g.NumVertices(); i++ {
		a, b := g.Vertex(VertexID(i)), got.Vertex(VertexID(i))
		if a.Name != b.Name || a.Label != b.Label {
			t.Fatalf("vertex %d identity mismatch", i)
		}
		if a.Metric("time") != b.Metric("time") || a.Attr("debug") != b.Attr("debug") {
			t.Fatalf("vertex %d data mismatch", i)
		}
		av, bv := a.Vec("time"), b.Vec("time")
		if len(av) != len(bv) {
			t.Fatalf("vertex %d vec length mismatch", i)
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("vertex %d vec mismatch", i)
			}
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(EdgeID(i)), got.Edge(EdgeID(i))
		if a.Src != b.Src || a.Dst != b.Dst || a.Label != b.Label ||
			a.Metric("bytes") != b.Metric("bytes") || a.Attr("kind") != b.Attr("kind") {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestSerializeBadInput(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated input should error")
	}
	if _, err := ReadFrom(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Error("zero magic should error")
	}
}

// Property: SerializedSize equals WriteTo's byte count on random graphs
// carrying metrics, vectors and attributes with repeated and empty strings.
func TestSerializedSize(t *testing.T) {
	words := []string{"", "time", "wait", "MPI_Send", "v", "main.c:12"}
	f := func(seed int64) bool {
		g := randomDAG(12, 0.3, seed)
		rng := rand.New(rand.NewSource(seed))
		word := func() string { return words[rng.Intn(len(words))] }
		for i := 0; i < g.NumVertices(); i++ {
			v := g.Vertex(VertexID(i))
			for j := rng.Intn(4); j > 0; j-- {
				v.SetMetric(word(), rng.Float64())
				v.SetVec(word(), make([]float64, rng.Intn(5)))
				v.SetAttr(word(), word())
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			for j := rng.Intn(3); j > 0; j-- {
				e.SetMetric(word(), rng.Float64())
				e.SetAttr(word(), word())
			}
		}
		n, err := g.WriteTo(io.Discard)
		return err == nil && n > 0 && g.SerializedSize() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDOT(t *testing.T) {
	g := New(2, 1)
	a := g.AddVertex("main", 0)
	b := g.AddVertex("MPI_Send", 1)
	e := g.AddEdge(a, b, 0)
	s := g.DOT("test", map[VertexID]bool{b: true}, map[EdgeID]bool{e: true})
	for _, want := range []string{"digraph", "MPI_Send", "shape=box", "color=red"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// Property: serialization round-trips structure on random graphs.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(12, 0.3, seed)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(EdgeID(i)).Src != got.Edge(EdgeID(i)).Src ||
				g.Edge(EdgeID(i)).Dst != got.Edge(EdgeID(i)).Dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWriteGraphML(t *testing.T) {
	g := New(2, 1)
	a := g.AddVertex("main", 0)
	b := g.AddVertex("MPI_Send<&>", 1)
	g.Vertex(a).SetMetric("time", 1.5)
	g.Vertex(a).SetAttr("debug", "m.c:1")
	e := g.AddEdge(a, b, 3)
	g.Edge(e).SetMetric("wait", 2.5)

	var buf bytes.Buffer
	if err := g.WriteGraphML(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<graphml", `attr.name="time"`, `MPI_Send&lt;&amp;&gt;`,
		`<data key="vm_time">1.5</data>`, `<data key="em_wait">2.5</data>`,
		`edgedefault="directed"`, `<data key="va_debug">m.c:1</data>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("GraphML missing %q:\n%s", want, out)
		}
	}
}
