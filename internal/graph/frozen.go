package graph

import (
	"sync"
)

// Frozen is an immutable compressed-sparse-row (CSR) snapshot of a Graph,
// specialized for the traversal mix of PerFlow's analysis passes: adjacency
// is packed into flat arrays (no per-call Successors/Predecessors
// allocation), vertices are indexed by name and by label, and traversal
// scratch buffers are recycled through a sync.Pool so repeated queries on
// one PAG allocate nothing.
//
// A Frozen view is obtained with Graph.Frozen() and is valid until the next
// structural mutation (AddVertex/AddEdge) of the underlying graph — metric
// and attribute updates do not invalidate it. Using a stale view panics;
// calling Frozen() again returns a fresh snapshot. All methods are safe for
// concurrent use.
type Frozen struct {
	g       *Graph
	version uint64

	// CSR adjacency: the neighbors of v occupy outDst[outStart[v]:outStart[v+1]],
	// with outEdge carrying the corresponding edge IDs (insertion order
	// preserved, so traversals visit in the same order as the mutable graph).
	outStart []int32
	outDst   []VertexID
	outEdge  []EdgeID
	inStart  []int32
	inSrc    []VertexID
	inEdge   []EdgeID

	byName  map[string]VertexID // first vertex per name (lowest ID)
	byLabel map[int][]VertexID  // vertices per label, ID-ascending

	pool sync.Pool // *frozenScratch

	topoOnce  sync.Once
	topoOrder []VertexID
	topoOK    bool

	// Structure-derived artifacts of the DAG algorithms (see DAG and LCA),
	// built at most once per snapshot and dropped with it.
	dagOnce sync.Once
	dag     *Graph
	dagEdge []EdgeID

	lcaOnce sync.Once
	lca     *LCAFinder
	lcaMu   sync.Mutex
}

// frozenScratch bundles the per-traversal working memory recycled across
// calls. Every user must leave seen all-false before returning it.
type frozenScratch struct {
	seen  []bool
	queue []VertexID
	indeg []int32
	eprev []EdgeID
	dist  []float64
}

// Frozen returns the CSR snapshot of g, building it on first use and caching
// it until the next structural mutation. Cost is O(V+E) once; every
// subsequent call (and every FindVertexByName on an unmutated graph) is a
// cache hit.
func (g *Graph) Frozen() *Frozen {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if g.frozen != nil && g.frozen.version == g.version {
		return g.frozen
	}
	g.frozen = newFrozen(g)
	return g.frozen
}

func newFrozen(g *Graph) *Frozen {
	nv, ne := len(g.vertices), len(g.edges)
	f := &Frozen{
		g:        g,
		version:  g.version,
		outStart: make([]int32, nv+1),
		outDst:   make([]VertexID, ne),
		outEdge:  make([]EdgeID, ne),
		inStart:  make([]int32, nv+1),
		inSrc:    make([]VertexID, ne),
		inEdge:   make([]EdgeID, ne),
		byName:   make(map[string]VertexID, nv),
		byLabel:  make(map[int][]VertexID, 16),
	}
	idx := int32(0)
	for v := 0; v < nv; v++ {
		f.outStart[v] = idx
		for _, eid := range g.out[v] {
			f.outDst[idx] = g.edges[eid].Dst
			f.outEdge[idx] = eid
			idx++
		}
	}
	f.outStart[nv] = idx
	idx = 0
	for v := 0; v < nv; v++ {
		f.inStart[v] = idx
		for _, eid := range g.in[v] {
			f.inSrc[idx] = g.edges[eid].Src
			f.inEdge[idx] = eid
			idx++
		}
	}
	f.inStart[nv] = idx
	for v := 0; v < nv; v++ {
		vert := &g.vertices[v]
		if _, ok := f.byName[vert.Name]; !ok {
			f.byName[vert.Name] = VertexID(v)
		}
		f.byLabel[vert.Label] = append(f.byLabel[vert.Label], VertexID(v))
	}
	f.pool.New = func() any {
		return &frozenScratch{
			seen:  make([]bool, nv),
			queue: make([]VertexID, 0, nv),
			indeg: make([]int32, nv),
			eprev: make([]EdgeID, nv),
			dist:  make([]float64, nv),
		}
	}
	return f
}

// check panics if the underlying graph was structurally mutated after this
// snapshot was taken (the frozen-view invalidation rule).
func (f *Frozen) check() {
	if f.version != f.g.version {
		panic("graph: Frozen view invalidated by AddVertex/AddEdge; call Frozen() again")
	}
}

// Graph returns the underlying graph (for vertex/edge property access).
func (f *Frozen) Graph() *Graph { return f.g }

// NumVertices returns the vertex count of the snapshot.
func (f *Frozen) NumVertices() int { return len(f.outStart) - 1 }

// NumEdges returns the edge count of the snapshot.
func (f *Frozen) NumEdges() int { return len(f.outDst) }

// VertexByName returns the first vertex with the given name, or NoVertex,
// in O(1).
func (f *Frozen) VertexByName(name string) VertexID {
	f.check()
	if id, ok := f.byName[name]; ok {
		return id
	}
	return NoVertex
}

// VerticesWithLabel returns all vertices with the given label in ID order.
// The slice is owned by the snapshot and must not be modified.
func (f *Frozen) VerticesWithLabel(label int) []VertexID {
	f.check()
	return f.byLabel[label]
}

// OutNeighbors returns the successor vertices of v as a view into the CSR
// array — no allocation. The slice must not be modified.
func (f *Frozen) OutNeighbors(v VertexID) []VertexID {
	f.check()
	return f.outDst[f.outStart[v]:f.outStart[v+1]]
}

// OutEdgeIDs returns the outgoing edge IDs of v as a CSR view.
func (f *Frozen) OutEdgeIDs(v VertexID) []EdgeID {
	f.check()
	return f.outEdge[f.outStart[v]:f.outStart[v+1]]
}

// InNeighbors returns the predecessor vertices of v as a CSR view.
func (f *Frozen) InNeighbors(v VertexID) []VertexID {
	f.check()
	return f.inSrc[f.inStart[v]:f.inStart[v+1]]
}

// InEdgeIDs returns the incoming edge IDs of v as a CSR view.
func (f *Frozen) InEdgeIDs(v VertexID) []EdgeID {
	f.check()
	return f.inEdge[f.inStart[v]:f.inStart[v+1]]
}

// OutDegree returns the number of edges leaving v.
func (f *Frozen) OutDegree(v VertexID) int {
	return int(f.outStart[v+1] - f.outStart[v])
}

// InDegree returns the number of edges entering v.
func (f *Frozen) InDegree(v VertexID) int {
	return int(f.inStart[v+1] - f.inStart[v])
}

func (f *Frozen) getScratch() *frozenScratch { return f.pool.Get().(*frozenScratch) }
func (f *Frozen) putScratch(s *frozenScratch) {
	s.queue = s.queue[:0]
	f.pool.Put(s)
}

// BFS visits every vertex reachable from start in breadth-first order, in
// the same order as Graph.BFS but without allocating: the visited set and
// queue come from the snapshot's scratch pool. If visit returns false the
// traversal stops early.
func (f *Frozen) BFS(start VertexID, visit func(VertexID) bool) {
	f.check()
	if start < 0 || int(start) >= f.NumVertices() {
		return
	}
	s := f.getScratch()
	q := s.queue[:0]
	q = append(q, start)
	s.seen[start] = true
	for head := 0; head < len(q); head++ {
		v := q[head]
		if !visit(v) {
			break
		}
		for _, d := range f.outDst[f.outStart[v]:f.outStart[v+1]] {
			if !s.seen[d] {
				s.seen[d] = true
				q = append(q, d)
			}
		}
	}
	for _, v := range q {
		s.seen[v] = false
	}
	s.queue = q
	f.putScratch(s)
}

// ReverseBFS visits every vertex from which start is reachable, in the same
// order as Graph.ReverseBFS, allocation-free.
func (f *Frozen) ReverseBFS(start VertexID, visit func(VertexID) bool) {
	f.check()
	if start < 0 || int(start) >= f.NumVertices() {
		return
	}
	s := f.getScratch()
	q := s.queue[:0]
	q = append(q, start)
	s.seen[start] = true
	for head := 0; head < len(q); head++ {
		v := q[head]
		if !visit(v) {
			break
		}
		for _, src := range f.inSrc[f.inStart[v]:f.inStart[v+1]] {
			if !s.seen[src] {
				s.seen[src] = true
				q = append(q, src)
			}
		}
	}
	for _, v := range q {
		s.seen[v] = false
	}
	s.queue = q
	f.putScratch(s)
}

// TopoSort returns a topological order of all vertices (identical to
// Graph.TopoSort: Kahn's algorithm, ready vertices in ID order), or ok=false
// on a cyclic graph. The order is computed once per snapshot and cached; the
// returned slice is owned by the snapshot and must not be modified.
func (f *Frozen) TopoSort() (order []VertexID, ok bool) {
	f.check()
	f.topoOnce.Do(func() {
		n := f.NumVertices()
		s := f.getScratch()
		indeg := s.indeg[:n]
		for v := 0; v < n; v++ {
			indeg[v] = f.inStart[v+1] - f.inStart[v]
		}
		out := make([]VertexID, 0, n)
		for v := 0; v < n; v++ {
			if indeg[v] == 0 {
				out = append(out, VertexID(v))
			}
		}
		for head := 0; head < len(out); head++ {
			v := out[head]
			for _, d := range f.outDst[f.outStart[v]:f.outStart[v+1]] {
				indeg[d]--
				if indeg[d] == 0 {
					out = append(out, d)
				}
			}
		}
		f.putScratch(s)
		f.topoOrder, f.topoOK = out, len(out) == n
	})
	return f.topoOrder, f.topoOK
}

// Acyclic reports whether the snapshot is a DAG (cached with the topological
// order).
func (f *Frozen) Acyclic() bool {
	_, ok := f.TopoSort()
	return ok
}

// DAG returns the snapshot's graph itself when acyclic, or its DAGCopy
// plus the edge-ID translation back to the graph. Rare aggregation
// artifacts (alternating lock waits, shifting collective stragglers) can
// close cycles in a parallel view; the DAG algorithms run on the copy. The
// copy is built once per snapshot, so passes over one unmutated
// environment share it.
func (f *Frozen) DAG() (*Graph, []EdgeID) {
	f.check()
	f.dagOnce.Do(func() {
		if f.Acyclic() {
			f.dag = f.g
			return
		}
		// The copy aliases the original's metric/attribute maps; pin that
		// aliasing first so annotations applied to the original afterwards
		// remain visible through the copy.
		f.g.ensureSharedMaps()
		f.dag, f.dagEdge = DAGCopy(f.g)
	})
	return f.dag, f.dagEdge
}

// LCA returns the snapshot's LCA finder over DAG(), the edge-ID
// translation back to the graph, and the mutex callers must hold across
// their queries: a finder caches ancestor bitsets and reuses query
// scratch, so it is not safe for concurrent queries.
func (f *Frozen) LCA() (*LCAFinder, []EdgeID, *sync.Mutex) {
	dag, dagEdge := f.DAG()
	f.lcaOnce.Do(func() { f.lca = NewLCAFinder(dag) })
	return f.lca, dagEdge, &f.lcaMu
}

// Depths returns, for every vertex, the length of the longest path from any
// root to it (Graph.Depths on the snapshot), or ok=false on cyclic graphs.
func (f *Frozen) Depths() (depths []int32, ok bool) {
	order, ok := f.TopoSort()
	if !ok {
		return nil, false
	}
	depths = make([]int32, f.NumVertices())
	for _, v := range order {
		for _, d := range f.outDst[f.outStart[v]:f.outStart[v+1]] {
			if depths[v]+1 > depths[d] {
				depths[d] = depths[v] + 1
			}
		}
	}
	return depths, true
}

// CriticalPath returns the maximum-weight path through the DAG, exactly as
// Graph.CriticalPath, but with the distance and predecessor arrays drawn
// from the scratch pool — only the result path is allocated.
func (f *Frozen) CriticalPath(weight func(*Vertex) float64, edgeWeight func(*Edge) float64) ([]VertexID, []EdgeID, float64) {
	order, ok := f.TopoSort()
	if !ok {
		return nil, nil, 0
	}
	n := f.NumVertices()
	if n == 0 {
		return nil, nil, 0
	}
	g := f.g
	s := f.getScratch()
	dist := s.dist[:n]
	prev := s.eprev[:n]
	for i := 0; i < n; i++ {
		prev[i] = NoEdge
		dist[i] = weight(&g.vertices[i])
	}
	for _, v := range order {
		base := f.outStart[v]
		for k, d := range f.outDst[base:f.outStart[v+1]] {
			eid := f.outEdge[base+int32(k)]
			e := &g.edges[eid]
			ew := 0.0
			if edgeWeight != nil {
				ew = edgeWeight(e)
			}
			cand := dist[v] + ew + weight(&g.vertices[d])
			if cand > dist[d] {
				dist[d] = cand
				prev[d] = eid
			}
		}
	}
	end := VertexID(0)
	for i := 1; i < n; i++ {
		if dist[i] > dist[end] {
			end = VertexID(i)
		}
	}
	var vRev []VertexID
	var eRev []EdgeID
	for v := end; ; {
		vRev = append(vRev, v)
		eid := prev[v]
		if eid == NoEdge {
			break
		}
		eRev = append(eRev, eid)
		v = g.edges[eid].Src
	}
	total := dist[end]
	f.putScratch(s)
	reverseV(vRev)
	reverseE(eRev)
	return vRev, eRev, total
}
