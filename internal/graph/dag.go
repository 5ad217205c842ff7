package graph

// DAGOf returns the graph the DAG algorithms (LCA, critical path,
// dominators) run on: g itself when it is acyclic, with a nil edge
// translation, or else DAGCopy(g). Rare aggregation artifacts (alternating
// lock waits, shifting collective stragglers) can close cycles in a
// parallel view. The copy is built per call and shares g's metric and
// attribute maps, so use it before annotating g further.
func DAGOf(g *Graph) (*Graph, []EdgeID) {
	if !g.HasCycle() {
		return g, nil
	}
	return DAGCopy(g)
}

// DAGCopy returns an acyclic copy of g produced by dropping the back edges
// of a deterministic depth-first search (a directed graph is cyclic iff a
// DFS finds a back edge, so removing them always yields a DAG). Vertex IDs
// are preserved; origEdge maps each copy edge ID to the source edge ID in
// g. Passes that need DAG algorithms (LCA, critical path) run on the copy
// and translate edges back. If g is already acyclic the copy is exact.
func DAGCopy(g *Graph) (dag *Graph, origEdge []EdgeID) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(g.vertices)
	color := make([]byte, n)
	isBack := make([]bool, len(g.edges))

	// Iterative DFS over all vertices in ID order.
	type frame struct {
		v  VertexID
		ei int // next out-edge index to explore
	}
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{v: VertexID(start)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			outs := g.out[f.v]
			if f.ei >= len(outs) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			eid := outs[f.ei]
			f.ei++
			d := g.edges[eid].Dst
			switch color[d] {
			case white:
				color[d] = gray
				stack = append(stack, frame{v: d})
			case gray:
				isBack[eid] = true
			}
		}
	}

	dag = New(n, len(g.edges))
	for i := range g.vertices {
		v := &g.vertices[i]
		id := dag.AddVertex(v.Name, v.Label)
		cv := dag.Vertex(id)
		// Share attribute maps read-only: DAG copies are transient analysis
		// scaffolding, never mutated.
		cv.Metrics = v.Metrics
		cv.VecMetrics = v.VecMetrics
		cv.Attrs = v.Attrs
	}
	for i := range g.edges {
		if isBack[i] {
			continue
		}
		e := &g.edges[i]
		id := dag.AddEdge(e.Src, e.Dst, e.Label)
		ce := dag.Edge(id)
		ce.Metrics = e.Metrics
		ce.Attrs = e.Attrs
		origEdge = append(origEdge, EdgeID(i))
	}
	return dag, origEdge
}
