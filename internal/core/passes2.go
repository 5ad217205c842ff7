package core

import (
	"fmt"
	"math"
	"sort"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// Additional built-in passes beyond the four of §4.3.2: community grouping
// (the community-detection algorithm the paper lists in its graph-algorithm
// API), dominator-based root-cause search, Scalasca-style wait-state
// classification expressed as a pass, and scaling-curve classification
// across three or more runs.

// Attribute keys set by the passes in this file.
const (
	// AttrCommunity is the community ID assigned by CommunityPass.
	AttrCommunity = "community"
	// AttrWaitState is the wait-state class assigned by WaitStates.
	AttrWaitState = "waitstate"
	// AttrScaling is the scaling-behavior class assigned by ScalingCurve.
	AttrScaling = "scaling"
)

// CommunityGroup is one detected community with its aggregate cost.
type CommunityGroup struct {
	ID       int
	Size     int
	Time     float64 // summed exclusive time
	Hottest  string  // most expensive member
	Exemplar graph.VertexID
}

// Community partitions the set's environment into structural communities
// (label propagation over the PAG) and annotates every set member with its
// community ID. It returns the groups ordered by aggregate exclusive time —
// a module-level hotspot view ("which part of the program is hot") rather
// than a vertex-level one.
func Community(v *Set) []CommunityGroup {
	comm := v.PAG.G.CommunityDetect(0)
	agg := map[int]*CommunityGroup{}
	for _, vid := range v.V {
		vert := v.PAG.G.Vertex(vid)
		cid := comm[vid]
		vert.SetAttr(AttrCommunity, fmt.Sprintf("%d", cid))
		g := agg[cid]
		if g == nil {
			g = &CommunityGroup{ID: cid, Exemplar: vid}
			agg[cid] = g
		}
		g.Size++
		t := vert.Metric(pag.MetricExclTime)
		g.Time += t
		if g.Hottest == "" || t > v.PAG.G.Vertex(g.Exemplar).Metric(pag.MetricExclTime) {
			g.Hottest = vert.Name
			g.Exemplar = vid
		}
	}
	out := make([]CommunityGroup, 0, len(agg))
	for _, g := range agg {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CommunityPass annotates community IDs and forwards the set.
func CommunityPass() Pass {
	return PassFunc{
		PassName: "community_detection",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			Community(in[0])
			return []*Set{in[0]}, nil
		},
	}
}

// CommonDominators returns, for the victims in the set, the deepest vertex
// that dominates ALL of them in the environment's flowgraph rooted at root
// (every execution path from the root to any victim passes through it) —
// a stronger "must-pass point" than the LCA, useful when victims share a
// structural chokepoint. Returns an empty set when no victim is reachable
// from root. Cyclic environments are condensed first.
func CommonDominators(v *Set, root graph.VertexID) *Set {
	out := NewSet(v.PAG)
	if len(v.V) == 0 || !v.PAG.G.HasVertex(root) {
		return out
	}
	g, _ := graph.DAGOf(v.PAG.G)
	idom := g.Dominators(root)
	// Walk the first victim's dominator chain; keep entries dominating all.
	chain := domChain(idom, v.V[0])
	best := graph.NoVertex
	for _, d := range chain { // chain is victim -> ... -> root
		all := true
		for _, w := range v.V[1:] {
			if !graph.DominatorOf(idom, d, w) {
				all = false
				break
			}
		}
		if all {
			best = d // first (deepest) common dominator
			break
		}
	}
	if best != graph.NoVertex {
		out.V = append(out.V, best)
	}
	return out
}

func domChain(idom []graph.VertexID, v graph.VertexID) []graph.VertexID {
	var chain []graph.VertexID
	for v != graph.NoVertex {
		chain = append(chain, v)
		p := idom[v]
		if p == v {
			break
		}
		v = p
	}
	return chain
}

// DominatorPass wraps CommonDominators, rooting at the first in-degree-zero
// vertex of the environment.
func DominatorPass() Pass {
	return PassFunc{
		PassName: "dominator_analysis",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			roots := in[0].PAG.G.Roots()
			if len(roots) == 0 {
				return []*Set{NewSet(in[0].PAG)}, nil
			}
			return []*Set{CommonDominators(in[0], roots[0])}, nil
		},
	}
}

// WaitStates classifies each communication vertex by its dominant wait
// pattern — "late-sender", "late-receiver", "wait-at-collective", or
// "no-wait" — the Scalasca-style automatic analysis expressed as a PerFlow
// pass over the PAG instead of over raw traces. The class is stored as an
// attribute and the classified subset (wait > 0) is returned sorted by
// wait time.
func WaitStates(v *Set) *Set {
	out := NewSet(v.PAG)
	for _, vid := range v.V {
		vert := v.PAG.G.Vertex(vid)
		if !IsCommVertex(vert) {
			continue
		}
		vert.SetAttr(AttrWaitState, WaitClassOf(vert))
		if vert.Metric(pag.MetricWait) > 0 {
			out.V = append(out.V, vid)
		}
	}
	return out.SortBy(pag.MetricWait)
}

// IsCommVertex reports whether a vertex models a communication call — the
// subset WaitStates classifies and differential summaries count as MPI
// time.
func IsCommVertex(v *graph.Vertex) bool {
	return v.Attr(pag.AttrKind) == "comm" || v.Label == pag.VertexCommCall
}

// WaitClassOf is the Scalasca-style wait-state class of a communication
// vertex: "no-wait", "wait-at-collective", "late-receiver" (blocked
// sender), or "late-sender" (blocked receiver/wait). Shared by the
// WaitStates pass and internal/diff's run summaries so both layers agree
// on the taxonomy.
func WaitClassOf(v *graph.Vertex) string {
	wait := v.Metric(pag.MetricWait)
	switch {
	case wait <= 0:
		return "no-wait"
	case isCollectiveName(v.Name):
		return "wait-at-collective"
	case v.Name == "MPI_Send" || v.Name == "MPI_Isend":
		return "late-receiver"
	default:
		return "late-sender"
	}
}

func isCollectiveName(name string) bool {
	switch name {
	case "MPI_Barrier", "MPI_Allreduce", "MPI_Bcast", "MPI_Reduce", "MPI_Alltoall", "MPI_Allgather":
		return true
	}
	return false
}

// WaitStatePass wraps WaitStates.
func WaitStatePass() Pass {
	return PassFunc{
		PassName: "waitstate_classification",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			return []*Set{WaitStates(in[0])}, nil
		},
	}
}

// ScalingClass describes how a vertex's cost evolves across scales.
type ScalingClass string

// Scaling classes assigned by ScalingCurve.
const (
	ScalingPerfect  ScalingClass = "scales"   // per-rank share shrinks ~1/P
	ScalingConstant ScalingClass = "constant" // absolute time flat
	ScalingGrowing  ScalingClass = "grows"    // absolute time grows with P
)

// ScalingPoint is one (scale, PAG) observation for ScalingCurve.
type ScalingPoint struct {
	Ranks int
	Set   *Set // full vertex set of that run's top-down view
}

// ScalingCurve classifies every vertex of the LAST point's environment by
// fitting its summed time across three or more scales: vertices whose
// total stays ~flat while ranks grow are ScalingPerfect (per-rank share
// shrinks), growing totals are ScalingGrowing, and so on. The class lands
// in AttrScaling on the last point's vertices, and the returned set holds
// the ScalingGrowing vertices sorted by growth factor (stored as
// MetricScaleLoss) — the generalization of two-point differential analysis
// to a scaling curve.
func ScalingCurve(points []ScalingPoint) (*Set, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("core: scaling curve needs at least 2 points, got %d", len(points))
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Ranks < points[j].Ranks })
	last := points[len(points)-1].Set
	first := points[0].Set
	out := NewSet(last.PAG)

	// Index earlier runs' vertices by identity key.
	type key struct{ name, dbg string }
	firstTime := map[key]float64{}
	for _, vid := range first.V {
		vert := first.PAG.G.Vertex(vid)
		firstTime[key{vert.Name, vert.Attr(pag.AttrDebug)}] += vert.Metric(pag.MetricTime)
	}
	ratioP := float64(points[len(points)-1].Ranks) / float64(points[0].Ranks)

	for _, vid := range last.V {
		vert := last.PAG.G.Vertex(vid)
		tLast := vert.Metric(pag.MetricTime)
		tFirst := firstTime[key{vert.Name, vert.Attr(pag.AttrDebug)}]
		if tFirst <= 0 && tLast <= 0 {
			continue
		}
		growth := math.Inf(1)
		if tFirst > 0 {
			growth = tLast / tFirst
		}
		var class ScalingClass
		switch {
		case growth <= 1.25:
			// Summed-over-ranks time flat while ranks grew ratioP times:
			// per-rank share shrank ~1/P.
			class = ScalingPerfect
		case growth < ratioP*0.75:
			class = ScalingConstant
		default:
			class = ScalingGrowing
		}
		vert.SetAttr(AttrScaling, string(class))
		if class == ScalingGrowing {
			vert.SetMetric(MetricScaleLoss, growth)
			out.V = append(out.V, vid)
		}
	}
	return out.SortBy(MetricScaleLoss), nil
}

// ScalingCurvePass wraps ScalingCurve over N input sets; rank counts are
// taken from each set's environment.
func ScalingCurvePass() Pass {
	return PassFunc{
		PassName: "scaling_curve",
		NumIn:    -1,
		Fn: func(in []*Set) ([]*Set, error) {
			points := make([]ScalingPoint, len(in))
			for i, s := range in {
				points[i] = ScalingPoint{Ranks: s.PAG.NRanks, Set: s}
			}
			res, err := ScalingCurve(points)
			if err != nil {
				return nil, err
			}
			return []*Set{res}, nil
		},
	}
}

// CondensePass replaces the set's environment with its SCC condensation —
// useful before DAG-only algorithms on cyclic parallel views. The returned
// set maps each input vertex to its component vertex (deduplicated). The
// condensation environment maps vertices back to ir.NoNode.
func CondensePass() Pass {
	return PassFunc{
		PassName: "condense",
		NumIn:    1,
		Fn: func(in []*Set) ([]*Set, error) {
			cg, comp := in[0].PAG.G.Condense()
			env := in[0].PAG.Derive(cg, in[0].PAG.NRanks)
			out := NewSet(env)
			seen := map[graph.VertexID]bool{}
			for _, vid := range in[0].V {
				cv := graph.VertexID(comp[vid])
				if !seen[cv] {
					seen[cv] = true
					out.V = append(out.V, cv)
				}
			}
			return []*Set{out}, nil
		},
	}
}

// TopProcesses returns the ranks whose vertices in the set carry the most
// of the given metric — "which processes hurt" (the per-process axis of the
// paper's parallel-view figures). It returns (rank, total) pairs sorted
// descending.
func TopProcesses(v *Set, metric string, n int) []RankTotal {
	totals := map[int]float64{}
	for _, vid := range v.V {
		vert := v.PAG.G.Vertex(vid)
		if v.PAG.View == pag.Parallel {
			totals[int(vert.Metric(pag.MetricRank))] += vert.Metric(metric)
			continue
		}
		for r, x := range vert.Vec(metric + "_vec") {
			totals[r] += x
		}
	}
	out := make([]RankTotal, 0, len(totals))
	for r, t := range totals {
		out = append(out, RankTotal{Rank: r, Total: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Rank < out[j].Rank
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RankTotal is one row of TopProcesses.
type RankTotal struct {
	Rank  int
	Total float64
}
