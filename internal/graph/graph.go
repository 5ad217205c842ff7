// Package graph implements the property-digraph substrate underlying the
// Program Abstraction Graph (PAG) and every graph algorithm PerFlow's passes
// rely on: traversal, lowest common ancestor, subgraph matching, community
// detection, critical-path extraction, and graph difference.
//
// The paper stores PAGs in igraph; this package is the from-scratch Go
// replacement. Vertices and edges carry an integer label (the semantic type,
// interpreted by package pag), a name, scalar metrics, per-process vector
// metrics, and string attributes (debug info and the like).
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// VertexID identifies a vertex within one Graph. IDs are dense indices
// assigned in insertion order and are never reused.
type VertexID int32

// EdgeID identifies an edge within one Graph, dense in insertion order.
type EdgeID int32

// NoVertex is returned by lookups that find nothing.
const NoVertex VertexID = -1

// NoEdge is returned by edge lookups that find nothing.
const NoEdge EdgeID = -1

// Vertex is a node of a property digraph.
type Vertex struct {
	ID    VertexID
	Name  string
	Label int // semantic type, interpreted by the owning layer (see pag)

	// Metrics holds scalar performance data (e.g. aggregate time, PMU sums).
	Metrics map[string]float64
	// VecMetrics holds per-process (or per-thread) values of a metric,
	// indexed by rank. Used by imbalance analysis.
	VecMetrics map[string][]float64
	// Attrs holds string attributes such as debug info ("file:line").
	Attrs map[string]string
}

// Metric returns the scalar metric m, or 0 if absent.
func (v *Vertex) Metric(m string) float64 {
	if v.Metrics == nil {
		return 0
	}
	return v.Metrics[m]
}

// SetMetric sets scalar metric m to val, allocating the map lazily.
func (v *Vertex) SetMetric(m string, val float64) {
	if v.Metrics == nil {
		v.Metrics = make(map[string]float64, 4)
	}
	v.Metrics[m] = val
}

// AddMetric adds val to scalar metric m.
func (v *Vertex) AddMetric(m string, val float64) {
	if v.Metrics == nil {
		v.Metrics = make(map[string]float64, 4)
	}
	v.Metrics[m] += val
}

// Vec returns the vector metric m, or nil if absent.
func (v *Vertex) Vec(m string) []float64 {
	if v.VecMetrics == nil {
		return nil
	}
	return v.VecMetrics[m]
}

// SetVec sets the vector metric m.
func (v *Vertex) SetVec(m string, vals []float64) {
	if v.VecMetrics == nil {
		v.VecMetrics = make(map[string][]float64, 2)
	}
	v.VecMetrics[m] = vals
}

// AddVecAt adds val at index i of vector metric m, growing the vector with
// zeros as needed.
func (v *Vertex) AddVecAt(m string, i int, val float64) {
	if v.VecMetrics == nil {
		v.VecMetrics = make(map[string][]float64, 2)
	}
	vec := v.VecMetrics[m]
	for len(vec) <= i {
		vec = append(vec, 0)
	}
	vec[i] += val
	v.VecMetrics[m] = vec
}

// Attr returns string attribute k, or "" if absent.
func (v *Vertex) Attr(k string) string {
	if v.Attrs == nil {
		return ""
	}
	return v.Attrs[k]
}

// SetAttr sets string attribute k to val.
func (v *Vertex) SetAttr(k, val string) {
	if v.Attrs == nil {
		v.Attrs = make(map[string]string, 2)
	}
	v.Attrs[k] = val
}

// Edge is a directed edge Src -> Dst of a property digraph.
type Edge struct {
	ID    EdgeID
	Src   VertexID
	Dst   VertexID
	Label int

	Metrics map[string]float64
	Attrs   map[string]string
}

// Metric returns scalar metric m of the edge, or 0 if absent.
func (e *Edge) Metric(m string) float64 {
	if e.Metrics == nil {
		return 0
	}
	return e.Metrics[m]
}

// SetMetric sets scalar metric m on the edge.
func (e *Edge) SetMetric(m string, val float64) {
	if e.Metrics == nil {
		e.Metrics = make(map[string]float64, 2)
	}
	e.Metrics[m] = val
}

// Attr returns string attribute k of the edge, or "" if absent.
func (e *Edge) Attr(k string) string {
	if e.Attrs == nil {
		return ""
	}
	return e.Attrs[k]
}

// SetAttr sets string attribute k on the edge.
func (e *Edge) SetAttr(k, val string) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]string, 2)
	}
	e.Attrs[k] = val
}

// Graph is a directed property graph with stable, dense vertex and edge IDs.
// The zero value is an empty graph ready for use.
//
// Structural mutation (AddVertex, AddEdge) is not safe for concurrent use;
// concurrent reads, subgraph matching included, are.
type Graph struct {
	vertices []Vertex
	edges    []Edge
	out      [][]EdgeID // outgoing edge IDs per vertex
	in       [][]EdgeID // incoming edge IDs per vertex

	// version counts structural mutations; the label index is valid only
	// while the version it was built at is current.
	version uint64

	mu        sync.Mutex // guards byLabel and byLabelAt
	byLabel   map[int][]VertexID
	byLabelAt uint64
}

// New returns an empty graph with capacity hints for nv vertices and ne edges.
func New(nv, ne int) *Graph {
	return &Graph{
		vertices: make([]Vertex, 0, nv),
		edges:    make([]Edge, 0, ne),
		out:      make([][]EdgeID, 0, nv),
		in:       make([][]EdgeID, 0, nv),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a vertex with the given name and label and returns its ID.
func (g *Graph) AddVertex(name string, label int) VertexID {
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Name: name, Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.version++
	return id
}

// AddEdge appends a directed edge src -> dst with the given label and returns
// its ID. It panics if either endpoint is out of range: edges are only ever
// created by builders that just created their endpoints, so a bad ID is a
// programming error, not an input error.
func (g *Graph) AddEdge(src, dst VertexID, label int) EdgeID {
	if !g.HasVertex(src) || !g.HasVertex(dst) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d vertices", src, dst, len(g.vertices)))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Src: src, Dst: dst, Label: label})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	g.version++
	return id
}

// Frozen does nothing. It used to build a compressed-sparse-row snapshot
// of g; every graph algorithm now runs on g's own adjacency lists.
//
// Deprecated: kept only so existing callers compile.
func (g *Graph) Frozen() {}

// HasVertex reports whether id is a valid vertex of g.
func (g *Graph) HasVertex(id VertexID) bool {
	return id >= 0 && int(id) < len(g.vertices)
}

// HasEdge reports whether id is a valid edge of g.
func (g *Graph) HasEdge(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges)
}

// Vertex returns a pointer to the vertex with the given ID. The pointer stays
// valid until the next AddVertex (callers must not retain it across growth).
func (g *Graph) Vertex(id VertexID) *Vertex { return &g.vertices[id] }

// Edge returns a pointer to the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// OutEdges returns the IDs of edges leaving v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) OutEdges(v VertexID) []EdgeID { return g.out[v] }

// InEdges returns the IDs of edges entering v.
func (g *Graph) InEdges(v VertexID) []EdgeID { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v VertexID) int { return len(g.in[v]) }

// Successors returns the destination vertices of v's outgoing edges, in edge
// insertion order (duplicates preserved for parallel edges).
func (g *Graph) Successors(v VertexID) []VertexID {
	succ := make([]VertexID, len(g.out[v]))
	for i, eid := range g.out[v] {
		succ[i] = g.edges[eid].Dst
	}
	return succ
}

// Predecessors returns the source vertices of v's incoming edges.
func (g *Graph) Predecessors(v VertexID) []VertexID {
	pred := make([]VertexID, len(g.in[v]))
	for i, eid := range g.in[v] {
		pred[i] = g.edges[eid].Src
	}
	return pred
}

// FindEdge returns the ID of the first edge src -> dst, or NoEdge.
func (g *Graph) FindEdge(src, dst VertexID) EdgeID {
	for _, eid := range g.out[src] {
		if g.edges[eid].Dst == dst {
			return eid
		}
	}
	return NoEdge
}

// FindVertexByName returns the first vertex with the given name, or NoVertex.
func (g *Graph) FindVertexByName(name string) VertexID {
	for i := range g.vertices {
		if g.vertices[i].Name == name {
			return VertexID(i)
		}
	}
	return NoVertex
}

// verticesWithLabel returns the vertices carrying label, in ID order. The
// label index behind it is built on first use and rebuilt after any
// structural mutation. The slice is shared and must not be modified.
func (g *Graph) verticesWithLabel(label int) []VertexID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.byLabel == nil || g.byLabelAt != g.version {
		g.byLabel = make(map[int][]VertexID, 16)
		for i := range g.vertices {
			l := g.vertices[i].Label
			g.byLabel[l] = append(g.byLabel[l], VertexID(i))
		}
		g.byLabelAt = g.version
	}
	return g.byLabel[label]
}

// VerticesWhere returns the IDs of all vertices for which pred returns true,
// in ID order.
func (g *Graph) VerticesWhere(pred func(*Vertex) bool) []VertexID {
	var ids []VertexID
	for i := range g.vertices {
		if pred(&g.vertices[i]) {
			ids = append(ids, VertexID(i))
		}
	}
	return ids
}

// EdgesWhere returns the IDs of all edges for which pred returns true.
func (g *Graph) EdgesWhere(pred func(*Edge) bool) []EdgeID {
	var ids []EdgeID
	for i := range g.edges {
		if pred(&g.edges[i]) {
			ids = append(ids, EdgeID(i))
		}
	}
	return ids
}

// Roots returns all vertices with in-degree zero, in ID order.
func (g *Graph) Roots() []VertexID {
	var roots []VertexID
	for i := range g.vertices {
		if len(g.in[i]) == 0 {
			roots = append(roots, VertexID(i))
		}
	}
	return roots
}

// Leaves returns all vertices with out-degree zero, in ID order.
func (g *Graph) Leaves() []VertexID {
	var leaves []VertexID
	for i := range g.vertices {
		if len(g.out[i]) == 0 {
			leaves = append(leaves, VertexID(i))
		}
	}
	return leaves
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.vertices), len(g.edges))
	for i := range g.vertices {
		v := &g.vertices[i]
		id := c.AddVertex(v.Name, v.Label)
		cv := c.Vertex(id)
		cv.Metrics = cloneScalarMap(v.Metrics)
		cv.Attrs = cloneStringMap(v.Attrs)
		cv.VecMetrics = cloneVecMap(v.VecMetrics)
	}
	for i := range g.edges {
		e := &g.edges[i]
		id := c.AddEdge(e.Src, e.Dst, e.Label)
		ce := c.Edge(id)
		ce.Metrics = cloneScalarMap(e.Metrics)
		ce.Attrs = cloneStringMap(e.Attrs)
	}
	return c
}

func cloneScalarMap(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	c := make(map[string]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func cloneStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func cloneVecMap(m map[string][]float64) map[string][]float64 {
	if m == nil {
		return nil
	}
	c := make(map[string][]float64, len(m))
	for k, v := range m {
		cv := make([]float64, len(v))
		copy(cv, v)
		c[k] = cv
	}
	return c
}

// SortedMetricKeys returns the metric names of v in sorted order, for
// deterministic reporting.
func SortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
