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
// statically: the symbolic event's guards, loop trip counts, peer and
// payload evaluated at one (rank, size), so the per-rank sequence of MPI
// calls is known without running the simulator.
type commOp struct {
	node  *ir.Comm
	op    ir.CommKind // effective operation (Sendrecv splits into Isend+Irecv)
	fn    string      // enclosing function
	peer  int         // resolved peer rank for p2p ops; -1 when unresolved
	mult  float64     // execution count from enclosing loop trip products
	bytes float64
	loops []*ir.Loop // enclosing loops on the call path, outermost first
}

// modelComms evaluates the symbolic dataflow model at one (rank, nranks):
// every event whose guards hold and whose loops all trip, in execution
// order, with its trip product, resolved peer and payload. This is the only
// interpretation of the IR the analyzers read; Sendrecv arrives already
// split into its Isend and Irecv halves.
func modelComms(m *sdf.Model, rank, nranks int) []commOp {
	var out []commOp
	for _, ev := range m.Events {
		w := ev.Weight(rank, nranks)
		if w == 0 {
			continue
		}
		o := commOp{node: ev.Node, op: ev.Op, fn: ev.Fn, peer: -1, mult: w,
			bytes: ev.Bytes(rank, nranks), loops: ev.Loops}
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
