package perflow

import (
	"fmt"
	"io"
	"sort"

	"perflow/internal/ir"
	"perflow/internal/sdf"
)

// Prediction is a static performance estimate derived from the IR alone —
// the communication matrix, per-rank cost vector, critical path and load
// imbalance a program is predicted to exhibit at one communicator size,
// computed before (or without) a single simulated rank running. The
// symbolic dataflow model underneath keeps rank and size dependence in
// closed form, so predicting at a new size costs an evaluation, not a run.
type Prediction struct {
	Ranks  int
	Model  *sdf.Model
	Cost   sdf.CostSummary
	Matrix *sdf.Matrix
}

// Predict builds the static performance estimate of a program at the given
// communicator size. The program is finalized if it has not been, so it
// fails on every program Validate rejects, recursive call graphs among
// them.
func Predict(prog *Program, ranks int) (*Prediction, error) {
	if ranks <= 0 {
		ranks = 8
	}
	if err := prog.Finalize(); err != nil {
		return nil, err
	}
	model, err := sdf.New(prog)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Ranks:  ranks,
		Model:  model,
		Cost:   model.Cost(ranks, sdf.DefaultCostParams()),
		Matrix: model.Matrix(ranks),
	}, nil
}

// maxPredictRows bounds the symbolic row and divergence listings so a
// large program cannot flood a report; the roll-up lines above the listing
// always cover everything.
const maxPredictRows = 12

// Write renders the standalone static report: cost model, static hotspot
// table, communication totals, and the symbolic (size-independent) rows.
func (p *Prediction) Write(w io.Writer) {
	fmt.Fprintln(w, "-- static prediction --")
	fmt.Fprintf(w, "ranks: %d (closed forms evaluable at any size)\n", p.Ranks)
	fmt.Fprintf(w, "critical path: %.1f us on rank %d\n", p.Cost.CriticalPath, p.Cost.CritRank)
	fmt.Fprintf(w, "mean rank cost: %.1f us, imbalance (max/mean): %.3f\n", p.Cost.Mean, p.Cost.Imbalance)
	if fns := p.Model.FunctionCosts(p.Ranks); len(fns) > 0 {
		fmt.Fprintln(w, "predicted hotspots:")
		for i, fc := range fns {
			if i == maxPredictRows {
				fmt.Fprintf(w, "  ... (%d more)\n", len(fns)-i)
				break
			}
			fmt.Fprintf(w, "  %s: %.1f us\n", fc.Fn, fc.Compute)
		}
	}
	t := p.Matrix.TotalP2P()
	fmt.Fprintf(w, "p2p traffic: %.0f messages, %.0f bytes across %d rank pairs\n",
		t.Count, t.Bytes, len(p.Matrix.Pairs))
	for _, op := range sortedCollectiveKinds(p.Matrix) {
		c := p.Matrix.Collectives[op]
		fmt.Fprintf(w, "collective %s: %.0f participations, %.0f bytes\n", op, c.Count, c.Bytes)
	}
	if rows := p.Model.SymbolicComms(); len(rows) > 0 {
		fmt.Fprintln(w, "symbolic communication structure:")
		for i, r := range rows {
			if i == maxPredictRows {
				fmt.Fprintf(w, "  ... (%d more)\n", len(rows)-i)
				break
			}
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
	if sizes := sdf.WitnessSizes(p.Model.Prog); len(sizes) > 0 {
		fmt.Fprintf(w, "witness sizes: %v\n", sizes)
	}
}

// WriteComparison renders the cross-check section attached to analysis
// reports: the statically predicted communication matrix against the one
// counted from the collected run. Agreement is stated explicitly;
// divergence lists the offending slots — on a fault-free run any
// divergence means the static model and the runtime disagree about the
// program, which is a finding in itself.
func (p *Prediction) WriteComparison(w io.Writer, res *Result) {
	fmt.Fprintln(w, "-- static prediction --")
	fmt.Fprintf(w, "critical path: %.1f us on rank %d, imbalance %.3f (observed makespan %.1f us)\n",
		p.Cost.CriticalPath, p.Cost.CritRank, p.Cost.Imbalance, res.Run.TotalTime())
	obs := sdf.Observed(res.Run)
	diff := p.Matrix.Diff(obs)
	t := p.Matrix.TotalP2P()
	if len(diff) == 0 {
		fmt.Fprintf(w, "communication matrix: predicted == observed (%d rank pairs, %.0f messages, %.0f bytes, %d collective kinds)\n",
			len(p.Matrix.Pairs), t.Count, t.Bytes, len(p.Matrix.Collectives))
		return
	}
	fmt.Fprintf(w, "communication matrix DIVERGES in %d slots (predicted %.0f messages over %d pairs):\n",
		len(diff), t.Count, len(p.Matrix.Pairs))
	for i, d := range diff {
		if i == maxPredictRows {
			fmt.Fprintf(w, "  ... (%d more)\n", len(diff)-i)
			break
		}
		if d.Src < 0 {
			fmt.Fprintf(w, "  %s: predicted %.0fx/%.0fB, observed %.0fx/%.0fB\n",
				d.Op, d.PredCount, d.PredBytes, d.ObsCount, d.ObsBytes)
		} else {
			fmt.Fprintf(w, "  %d->%d: predicted %.0fx/%.0fB, observed %.0fx/%.0fB\n",
				d.Src, d.Dst, d.PredCount, d.PredBytes, d.ObsCount, d.ObsBytes)
		}
	}
	if res.Run.Degraded() {
		fmt.Fprintln(w, "run is degraded (see data quality); divergence localizes the missing traffic")
	} else {
		fmt.Fprintln(w, "run is clean; divergence indicates nondeterministic matching or a model gap")
	}
}

func sortedCollectiveKinds(mx *sdf.Matrix) []ir.CommKind {
	out := make([]ir.CommKind, 0, len(mx.Collectives))
	for k := range mx.Collectives {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
