package pag

import (
	"perflow/internal/graph"
	"perflow/internal/trace"
)

// AttrDataQuality marks graph elements whose metrics are derived from
// incomplete rank data (crashed, stalled, or salvaged streams). The
// contract: a vertex tagged "partial" aggregated at least one event from
// a rank whose stream is incomplete, so its metrics (and any imbalance
// vector positions for those ranks) understate the true execution.
// Untagged vertices carry only clean-rank data.
const AttrDataQuality = "data_quality"

// QualityPartial is the AttrDataQuality value for partial data.
const QualityPartial = "partial"

// TagDataQuality walks run's per-rank status and tags the vertices (and,
// in the parallel view, inter-process edges) fed by incomplete streams
// with AttrDataQuality="partial". It returns the number of elements
// tagged.
func (p *PAG) TagDataQuality(run *trace.Run) int {
	if run == nil || len(run.Status) == 0 {
		return 0
	}
	degraded := make(map[int32]bool)
	for r, s := range run.Status {
		if s.Incomplete() {
			degraded[int32(r)] = true
		}
	}
	if len(degraded) == 0 {
		return 0
	}
	tagged := 0
	mark := func(v *graph.Vertex) {
		if v.Attr(AttrDataQuality) == "" {
			v.SetAttr(AttrDataQuality, QualityPartial)
			tagged++
		}
	}

	if p.View == TopDown {
		// Resolve each calling context seen by a degraded rank once, then
		// tag every frame on its path: all those vertices aggregated events
		// from the incomplete stream.
		seenCtx := make(map[trace.CtxID]bool)
		for r := range run.Events {
			if !degraded[int32(r)] {
				continue
			}
			evs := run.Events[r]
			for i := range evs {
				ctx := evs[i].Ctx
				if seenCtx[ctx] {
					continue
				}
				seenCtx[ctx] = true
				if run.CCT == nil {
					continue
				}
				for _, n := range run.CCT.Path(ctx) {
					if vid := p.VertexOf(n); vid != graph.NoVertex {
						mark(p.G.Vertex(vid))
					}
				}
			}
		}
		return tagged
	}

	// Parallel view: flow vertices carry their owning rank as a metric;
	// tag those owned by degraded ranks, then the inter-process edges
	// touching them (a message to or from a dead rank is itself suspect).
	partial := make(map[graph.VertexID]bool)
	for vid := 0; vid < p.G.NumVertices(); vid++ {
		v := p.G.Vertex(graph.VertexID(vid))
		if v.Label == VertexResource {
			continue
		}
		if degraded[int32(v.Metric(MetricRank))] {
			mark(v)
			partial[graph.VertexID(vid)] = true
		}
	}
	for eid := 0; eid < p.G.NumEdges(); eid++ {
		e := p.G.Edge(graph.EdgeID(eid))
		if e.Label != EdgeInterProcess {
			continue
		}
		if (partial[e.Src] || partial[e.Dst]) && e.Attr(AttrDataQuality) == "" {
			e.SetAttr(AttrDataQuality, QualityPartial)
			tagged++
		}
	}
	return tagged
}
