package lint

import (
	"perflow/internal/ir"
	"perflow/internal/sdf"
)

// eagerThreshold mirrors mpisim's default: sends at or below this many
// bytes complete eagerly, larger sends rendezvous and block until the
// receive is posted. The deadlock analyzer uses it to decide which sends
// can participate in a blocking cycle.
const eagerThreshold = 4096

// wildAny marks a receive posted with MPI_ANY_SOURCE: unlike an unresolved
// peer (-1, which analyzers skip as PF002 territory), a wildcard is a
// deliberate pattern that matches a send from any rank. The matcher treats
// wildcard receives as a per-(destination, tag) pool that absorbs otherwise
// unmatched sends.
const wildAny = -2

// commOp is one communication operation as one rank executes it, resolved
// statically: peers, branch conditions, and loop trip counts are all
// evaluable per (rank, size), so the per-rank sequence of MPI calls is
// known without running the simulator.
type commOp struct {
	node  *ir.Comm
	op    ir.CommKind // effective operation (Sendrecv splits into Isend+Irecv)
	fn    string      // enclosing function
	peer  int         // resolved peer rank for p2p ops; -1 when unresolved
	mult  float64     // execution count from enclosing loop trip products
	bytes float64
}

// rankComms resolves the communication sequence of one rank: a DFS from
// the entry function in execution order, taking branches whose condition
// is nonzero for the rank, entering loops once with multiplicity scaled by
// the trip count, and following direct calls (external, indirect, and
// undefined callees are skipped; recursion is cut at the cycle, which the
// recursion analyzer reports separately). Sendrecv is expanded to an
// Isend toward the peer plus an Irecv from the symmetric partner, exactly
// as mpisim executes it.
func rankComms(prog *ir.Program, rank, nranks int) []commOp {
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return nil
	}
	var out []commOp
	onStack := map[string]bool{entry.Name: true}
	var walk func(ns []ir.Node, fn string, mult float64)
	walk = func(ns []ir.Node, fn string, mult float64) {
		for _, n := range ns {
			switch x := n.(type) {
			case *ir.Comm:
				emit := func(op ir.CommKind, peer ir.Peer) {
					o := commOp{node: x, op: op, fn: fn, peer: -1, mult: mult,
						bytes: x.Bytes.Value(rank, nranks)}
					switch op {
					case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
						if peer.Kind == ir.PeerAny {
							o.peer = wildAny
						} else {
							o.peer = peer.Resolve(rank, nranks)
						}
					}
					out = append(out, o)
				}
				if x.Op == ir.CommSendrecv {
					emit(ir.CommIsend, x.Peer)
					emit(ir.CommIrecv, x.Peer.Inverse())
				} else {
					emit(x.Op, x.Peer)
				}
			case *ir.Branch:
				if x.Taken.Value(rank, nranks) != 0 {
					walk(x.Body, fn, mult)
				}
			case *ir.Loop:
				if trips := x.Trips.Value(rank, nranks); trips > 0 {
					walk(x.Body, fn, mult*trips)
				}
			case *ir.Call:
				if x.External || x.Indirect || onStack[x.Callee] {
					continue
				}
				callee := prog.Function(x.Callee)
				if callee == nil {
					continue
				}
				onStack[x.Callee] = true
				walk(callee.Body, x.Callee, mult)
				onStack[x.Callee] = false
			default:
				walk(n.Children(), fn, mult)
			}
		}
	}
	walk(entry.Body, entry.Name, 1)
	return out
}

// modelComms derives the same per-rank communication sequence from the
// symbolic dataflow model: instead of re-walking the IR per rank, each
// symbolic event's closed-form guard, trip product, peer, and payload are
// evaluated at (rank, nranks). On any program the model summarizes exactly
// (acyclic static call graph), the stream is identical to rankComms —
// TestSymbolicEnumerationAgree pins that equivalence over every built-in
// workload and example at several sizes.
func modelComms(m *sdf.Model, rank, nranks int) []commOp {
	var out []commOp
	for _, ev := range m.Events {
		w := ev.Weight(rank, nranks)
		if w == 0 {
			continue
		}
		o := commOp{node: ev.Node, op: ev.Op, fn: ev.Fn, peer: -1, mult: w,
			bytes: ev.Bytes(rank, nranks)}
		switch ev.Op {
		case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
			if ev.Peer.Kind == ir.PeerAny {
				o.peer = wildAny
			} else {
				o.peer = ev.Peer.Resolve(rank, nranks)
			}
		}
		out = append(out, o)
	}
	return out
}
