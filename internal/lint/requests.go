package lint

import (
	"maps"

	"perflow/internal/ir"
)

// Request-lifetime analyzers: every Isend/Irecv request must reach an
// MPI_Wait/MPI_Waitall (PF010, error — a leaked request means the
// operation never completes), and a request name must not be reissued
// while its previous operation is still pending (PF011, warning — the
// earlier handle is lost). Tracking is interprocedural: requests routinely
// cross call boundaries (a helper posts the Irecvs, the caller waits), so
// one pending set follows a rank's whole communication stream.
func init() {
	Register(Analyzer{
		Name: "unwaited-request", Code: "PF010", Severity: SevError,
		Doc: "Isend/Irecv requests must be completed by MPI_Wait or MPI_Waitall",
		Run: func(ps *Pass) { runRequests(ps, "PF010") },
	})
	Register(Analyzer{
		Name: "request-reuse", Code: "PF011", Severity: SevWarning,
		Doc: "a request name must not be reissued before its wait",
		Run: func(ps *Pass) { runRequests(ps, "PF011") },
	})
}

func runRequests(ps *Pass, code string) {
	var perSize []map[diagKey]Diagnostic
	for _, size := range ps.Sizes() {
		perSize = append(perSize, requestFindings(ps, size, code))
	}
	reportAtEverySize(ps, perSize)
}

// requestFindings computes the request-lifetime findings of one kind at one
// communicator size. PF010/PF011 intersect them across the default sizes;
// the symbolic PF031 probes them at witness sizes beyond the enumerated
// set.
func requestFindings(ps *Pass, size int, code string) map[diagKey]Diagnostic {
	m := map[diagKey]Diagnostic{}
	for r := 0; r < size; r++ {
		pending, out := trackRequests(ps, ps.Comms(r, size), r, size, code == "PF011")
		if code == "PF010" {
			for req, o := range pending {
				d := ps.diag(o.node, o.fn,
					"%s request %q is never completed by MPI_Wait or MPI_Waitall", o.node.Op, req)
				m[diagKey{node: d.Node, extra: req}] = d
			}
			continue
		}
		for _, d := range out {
			k := diagKey{node: d.Node, extra: d.Message}
			if _, dup := m[k]; !dup {
				m[k] = d
			}
		}
	}
	return m
}

// loopVisit is one open instance of a loop in a rank's stream, with the
// pending set as it stood when the loop was entered.
type loopVisit struct {
	loop   *ir.Loop
	before map[string]*commOp
}

// trackRequests follows one rank's communication stream, tracking which
// request names have a pending nonblocking operation, and returns what is
// still pending at the end. With reuse set it also returns the PF011
// findings: a reissue while pending, and a request issued inside a
// multi-trip loop and still pending where that loop's body ends (the next
// iteration reuses it). A loop's body ends where the stream's enclosing-
// loop lists stop sharing it; two back-to-back visits of one loop with no
// operation between them read as one visit, which reports the same
// findings. The Isend/Irecv halves of a Sendrecv carry no request.
func trackRequests(ps *Pass, ops []commOp, rank, size int, reuse bool) (map[string]*commOp, []Diagnostic) {
	pending := map[string]*commOp{}
	var out []Diagnostic
	var open []loopVisit
	closeTo := func(depth int) {
		for len(open) > depth {
			v := open[len(open)-1]
			open = open[:len(open)-1]
			if v.loop.Trips.Value(rank, size) <= 1 {
				continue
			}
			fn := ps.Prog.FunctionOf(v.loop.ID()).Name
			for req, o := range pending {
				if b := v.before[req]; b != nil && b.node == o.node {
					continue // pending from outside the loop, not loop-carried
				}
				out = append(out, ps.diag(o.node, fn,
					"request %q issued inside loop %q is still pending at the end of the body; the next iteration reuses it", req, v.loop.Name))
			}
		}
	}
	for i := range ops {
		o := &ops[i]
		if reuse {
			depth := 0
			for depth < len(open) && depth < len(o.loops) && open[depth].loop == o.loops[depth] {
				depth++
			}
			closeTo(depth)
			for _, l := range o.loops[depth:] {
				open = append(open, loopVisit{loop: l, before: maps.Clone(pending)})
			}
		}
		switch x := o.node; x.Op {
		case ir.CommIsend, ir.CommIrecv:
			if x.Req == "" {
				continue // PF003 reports missing request names
			}
			if prev := pending[x.Req]; prev != nil && reuse {
				d := ps.diag(x, o.fn,
					"request %q reissued by %s before the pending %s completed", x.Req, x.Op, prev.node.Op)
				d.Related = append(d.Related, related(prev.node, "request %q previously issued here", x.Req))
				out = append(out, d)
			}
			pending[x.Req] = o
		case ir.CommWait:
			delete(pending, x.Req)
		case ir.CommWaitall:
			clear(pending)
		}
	}
	closeTo(0)
	return pending, out
}
