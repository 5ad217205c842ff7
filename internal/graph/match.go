package graph

import "sort"

// Subgraph matching (paper §4.3.2 D): find all embeddings of a small query
// pattern inside a large data graph. The contention-detection pass expresses
// resource-contention shapes as patterns and searches the parallel view of
// the PAG for their embeddings. The implementation is a VF2-style
// backtracking search with candidate ordering by query connectivity and
// optional label-based pruning (the ablation benchmark toggles pruning).

// MatchOptions controls subgraph matching.
type MatchOptions struct {
	// VertexCompat reports whether data vertex dv may be matched to query
	// vertex qv. If nil, labels must be equal unless the query label is
	// WildcardLabel.
	VertexCompat func(qv, dv *Vertex) bool
	// EdgeCompat reports whether data edge de may realize query edge qe.
	// If nil, labels must be equal unless the query label is WildcardLabel.
	EdgeCompat func(qe, de *Edge) bool
	// MaxEmbeddings stops the search after this many embeddings (0 = all).
	MaxEmbeddings int
	// Anchor, when Anchored is true, requires query vertex 0 to map to this
	// data vertex. Used to search for contention patterns "around" a
	// suspicious vertex.
	Anchor   VertexID
	Anchored bool
	// DisableLabelPruning turns off candidate-set pruning by label, forcing
	// the naive search. Exists only for the ablation benchmark.
	DisableLabelPruning bool
}

// WildcardLabel on a query vertex or edge matches any data label.
const WildcardLabel = -1

// Embedding is one occurrence of a query pattern in a data graph.
// VertexMap[i] is the data vertex matched to query vertex i; EdgeMap[j] is
// the data edge realizing query edge j.
type Embedding struct {
	VertexMap []VertexID
	EdgeMap   []EdgeID
}

// MatchSubgraph finds embeddings of query in data. Query vertex IDs must be
// dense 0..n-1 (always true for graphs built with AddVertex). Embeddings are
// injective on vertices. Results are deterministic: candidates are explored
// in data-vertex-ID order.
func MatchSubgraph(data, query *Graph, opts MatchOptions) []Embedding {
	nq := query.NumVertices()
	if nq == 0 || nq > data.NumVertices() {
		return nil
	}
	vcompat := opts.VertexCompat
	if vcompat == nil {
		vcompat = func(qv, dv *Vertex) bool {
			return qv.Label == WildcardLabel || qv.Label == dv.Label
		}
	}
	ecompat := opts.EdgeCompat
	if ecompat == nil {
		ecompat = func(qe, de *Edge) bool {
			return qe.Label == WildcardLabel || qe.Label == de.Label
		}
	}

	m := &matcher{
		data: data, query: query,
		vcompat: vcompat, ecompat: ecompat,
		max:     opts.MaxEmbeddings,
		assign:  make([]VertexID, nq),
		usedDat: make(map[VertexID]bool, nq),
	}
	for i := range m.assign {
		m.assign[i] = NoVertex
	}
	m.order = matchOrder(query)

	// Candidate sets per query vertex: drawn from the graph's label index
	// (pruning with the default compatibility), filtered by a full scan for
	// custom compatibility or wildcard labels, or all data vertices (naive).
	// The anchor restricts query vertex 0. All paths enumerate candidates in
	// ascending data-vertex ID, so the embedding order is identical across
	// them.
	m.cands = make([][]VertexID, nq)
	for _, q := range m.order {
		qv := query.Vertex(q)
		if q == 0 && opts.Anchored && data.HasVertex(opts.Anchor) {
			if vcompat(qv, data.Vertex(opts.Anchor)) {
				m.cands[q] = []VertexID{opts.Anchor}
			}
			continue
		}
		if opts.DisableLabelPruning {
			all := make([]VertexID, data.NumVertices())
			for i := range all {
				all[i] = VertexID(i)
			}
			m.cands[q] = all
			continue
		}
		if opts.VertexCompat == nil && qv.Label != WildcardLabel {
			// Fast path: the label index already holds exactly the
			// compatible vertices (ID-ascending); only degrees need checking.
			byLabel := data.verticesWithLabel(qv.Label)
			cands := make([]VertexID, 0, len(byLabel))
			for _, dv := range byLabel {
				if data.OutDegree(dv) >= query.OutDegree(q) && data.InDegree(dv) >= query.InDegree(q) {
					cands = append(cands, dv)
				}
			}
			m.cands[q] = cands
			continue
		}
		m.cands[q] = data.VerticesWhere(func(dv *Vertex) bool {
			return vcompat(qv, dv) &&
				data.OutDegree(dv.ID) >= query.OutDegree(q) &&
				data.InDegree(dv.ID) >= query.InDegree(q)
		})
	}
	m.search(0)
	return m.results
}

type matcher struct {
	data, query *Graph
	vcompat     func(qv, dv *Vertex) bool
	ecompat     func(qe, de *Edge) bool
	max         int
	order       []VertexID
	cands       [][]VertexID
	assign      []VertexID
	usedDat     map[VertexID]bool
	results     []Embedding
}

// matchOrder orders query vertices so each (after the first) is adjacent to
// an already-placed vertex where possible, maximizing early pruning. Query
// vertex 0 always comes first so MatchOptions.Anchor applies to it.
func matchOrder(q *Graph) []VertexID {
	n := q.NumVertices()
	order := make([]VertexID, 0, n)
	placed := make([]bool, n)
	order = append(order, 0)
	placed[0] = true
	for len(order) < n {
		// Pick the unplaced vertex with the most edges to placed vertices;
		// break ties by ID.
		best, bestScore := NoVertex, -1
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			score := 0
			for _, eid := range q.out[i] {
				if placed[q.edges[eid].Dst] {
					score++
				}
			}
			for _, eid := range q.in[i] {
				if placed[q.edges[eid].Src] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = VertexID(i), score
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

func (m *matcher) search(pos int) bool {
	if pos == len(m.order) {
		m.emit()
		return m.max > 0 && len(m.results) >= m.max
	}
	q := m.order[pos]
	for _, d := range m.cands[q] {
		if m.usedDat[d] {
			continue
		}
		if !m.consistent(q, d) {
			continue
		}
		m.assign[q] = d
		m.usedDat[d] = true
		done := m.search(pos + 1)
		m.usedDat[d] = false
		m.assign[q] = NoVertex
		if done {
			return true
		}
	}
	return false
}

// consistent checks that mapping query vertex q to data vertex d preserves
// every query edge between q and already-assigned query vertices.
func (m *matcher) consistent(q, d VertexID) bool {
	if !m.vcompat(m.query.Vertex(q), m.data.Vertex(d)) {
		return false
	}
	for _, qeid := range m.query.out[q] {
		qe := m.query.Edge(qeid)
		dOther := m.assign[qe.Dst]
		if dOther == NoVertex {
			continue
		}
		if !m.hasCompatEdge(d, dOther, qe) {
			return false
		}
	}
	for _, qeid := range m.query.in[q] {
		qe := m.query.Edge(qeid)
		dOther := m.assign[qe.Src]
		if dOther == NoVertex {
			continue
		}
		if !m.hasCompatEdge(dOther, d, qe) {
			return false
		}
	}
	return true
}

func (m *matcher) hasCompatEdge(src, dst VertexID, qe *Edge) bool {
	for _, deid := range m.data.out[src] {
		de := m.data.Edge(deid)
		if de.Dst == dst && m.ecompat(qe, de) {
			return true
		}
	}
	return false
}

// emit records the current complete assignment as an embedding, resolving
// one data edge per query edge.
func (m *matcher) emit() {
	vm := make([]VertexID, len(m.assign))
	copy(vm, m.assign)
	em := make([]EdgeID, m.query.NumEdges())
	for i := range em {
		qe := m.query.Edge(EdgeID(i))
		em[i] = NoEdge
		src, dst := vm[qe.Src], vm[qe.Dst]
		for _, deid := range m.data.out[src] {
			de := m.data.Edge(deid)
			if de.Dst == dst && m.ecompat(qe, de) {
				em[i] = deid
				break
			}
		}
	}
	m.results = append(m.results, Embedding{VertexMap: vm, EdgeMap: em})
}

// EmbeddingVertexSet returns the union of data vertices across embeddings,
// deduplicated and sorted.
func EmbeddingVertexSet(embs []Embedding) []VertexID {
	seen := make(map[VertexID]bool)
	for _, e := range embs {
		for _, v := range e.VertexMap {
			seen[v] = true
		}
	}
	out := make([]VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EmbeddingEdgeSet returns the union of data edges across embeddings,
// deduplicated and sorted, excluding NoEdge placeholders.
func EmbeddingEdgeSet(embs []Embedding) []EdgeID {
	seen := make(map[EdgeID]bool)
	for _, e := range embs {
		for _, eid := range e.EdgeMap {
			if eid != NoEdge {
				seen[eid] = true
			}
		}
	}
	out := make([]EdgeID, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
