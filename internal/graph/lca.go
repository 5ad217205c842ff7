package graph

import "math/bits"

// Lowest common ancestor on DAGs, used by the causal-analysis pass
// (paper §4.3.2 C). The goal is the deepest vertex that has both query
// vertices as descendants, where "deepest" means maximal longest-path depth
// from the roots, matching Schieber–Vishkin-style LCA generalized to DAGs.
//
// The causal pass issues many queries against one PAG (every pair of
// detected victims), so the finder is built for query reuse: ancestor sets
// are packed []uint64 bitsets, cached across queries and intersected
// word-wise; path reconstruction reuses finder-local scratch. A finder is
// NOT safe for concurrent use — build one per goroutine.
type LCAFinder struct {
	g      *Graph
	depths []int
	valid  bool
	nwords int

	// anc caches the ancestor bitset of every queried vertex.
	anc map[VertexID][]uint64

	// query scratch, reused across Query calls.
	bfsQueue   []VertexID
	seen       []bool
	parentEdge []EdgeID
}

// NewLCAFinder prepares LCA queries on g. If g is cyclic the finder is
// created but every query returns NoVertex. The finder captures g's
// current structure; do not mutate g while using it.
func NewLCAFinder(g *Graph) *LCAFinder {
	depths, ok := g.Depths()
	n := g.NumVertices()
	return &LCAFinder{
		g: g, depths: depths, valid: ok,
		nwords:     (n + 63) / 64,
		anc:        make(map[VertexID][]uint64, 16),
		seen:       make([]bool, n),
		parentEdge: make([]EdgeID, n),
	}
}

// Valid reports whether the underlying graph was acyclic at construction.
func (f *LCAFinder) Valid() bool { return f.valid }

// ancestorBits returns the ancestor set of v (including v itself) as a
// bitset indexed by VertexID, cached for subsequent queries.
func (f *LCAFinder) ancestorBits(v VertexID) []uint64 {
	if bs, ok := f.anc[v]; ok {
		return bs
	}
	bs := make([]uint64, f.nwords)
	f.bfsQueue = f.g.AncestorBits(v, bs, f.bfsQueue)[:0]
	f.anc[v] = bs
	return bs
}

// AncestorBits fills bs — a zeroed bitset with at least (NumVertices+63)/64
// words — with every vertex from which v is reachable, including v itself,
// by a reverse breadth-first search: the closure LCA ancestor sets are
// built from. queue is optional scratch; the (possibly grown) buffer is
// returned so callers can reuse it.
func (g *Graph) AncestorBits(v VertexID, bs []uint64, queue []VertexID) []VertexID {
	q := append(queue[:0], v)
	bs[int(v)>>6] |= 1 << (uint(v) & 63)
	for head := 0; head < len(q); head++ {
		for _, eid := range g.in[q[head]] {
			src := g.edges[eid].Src
			word, bit := int(src)>>6, uint64(1)<<(uint(src)&63)
			if bs[word]&bit == 0 {
				bs[word] |= bit
				q = append(q, src)
			}
		}
	}
	return q
}

// Query returns the deepest common ancestor of a and b and one path from
// that ancestor to each query vertex (pathA leads to a, pathB to b). Paths
// are slices of edge IDs in ancestor-to-descendant order. If no common
// ancestor exists (or the graph is cyclic), it returns NoVertex and nil
// paths. A vertex counts as its own ancestor, so Query(v, v) == v and if a
// is an ancestor of b, Query(a, b) == a.
func (f *LCAFinder) Query(a, b VertexID) (lca VertexID, pathA, pathB []EdgeID) {
	if !f.valid || !f.g.HasVertex(a) || !f.g.HasVertex(b) {
		return NoVertex, nil, nil
	}
	ancA := f.ancestorBits(a)
	ancB := f.ancestorBits(b)
	// Word-wise AND; the deepest set bit wins, ties broken by lowest ID
	// (ascending scan with strict comparison).
	lca = NoVertex
	best := -1
	for wi := range ancA {
		w := ancA[wi] & ancB[wi]
		for w != 0 {
			i := VertexID(wi<<6 + bits.TrailingZeros64(w))
			if f.depths[i] > best {
				best = f.depths[i]
				lca = i
			}
			w &= w - 1
		}
	}
	if lca == NoVertex {
		return NoVertex, nil, nil
	}
	return lca, f.pathDown(lca, a, ancA), f.pathDown(lca, b, ancB)
}

// pathDown returns edge IDs of one path from src down to dst, restricted to
// vertices in the ancestor bitset anc of dst (which guarantees progress:
// every vertex in anc other than dst has at least one outgoing edge to
// another anc member on a path to dst).
func (f *LCAFinder) pathDown(src, dst VertexID, anc []uint64) []EdgeID {
	if src == dst {
		return nil
	}
	// BFS from src over edges whose destination is still an ancestor of dst
	// (or dst itself), recording parents, then unwind. Scratch arrays are
	// finder-local; only the result path allocates.
	g := f.g
	q := f.bfsQueue[:0]
	q = append(q, src)
	f.seen[src] = true
	for head := 0; head < len(q); head++ {
		v := q[head]
		if v == dst {
			break
		}
		for _, eid := range g.out[v] {
			d := g.edges[eid].Dst
			if f.seen[d] || anc[d>>6]&(1<<(uint(d)&63)) == 0 {
				continue
			}
			f.seen[d] = true
			f.parentEdge[d] = eid
			q = append(q, d)
		}
	}
	found := f.seen[dst]
	var rev []EdgeID
	if found {
		for v := dst; v != src; {
			eid := f.parentEdge[v]
			rev = append(rev, eid)
			v = g.edges[eid].Src
		}
	}
	for _, v := range q {
		f.seen[v] = false
	}
	f.bfsQueue = q[:0]
	if !found {
		return nil
	}
	// Reverse to ancestor-to-descendant order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// QueryAll returns, for each unordered pair of distinct vertices in vs, the
// deepest common ancestor. Results are deduplicated and returned in ID order.
func (f *LCAFinder) QueryAll(vs []VertexID) []VertexID {
	seen := make(map[VertexID]bool)
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if lca, _, _ := f.Query(vs[i], vs[j]); lca != NoVertex {
				seen[lca] = true
			}
		}
	}
	out := make([]VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sortVertexIDs(out)
	return out
}

func sortVertexIDs(vs []VertexID) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
