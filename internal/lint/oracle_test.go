package lint

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"perflow/internal/ir"
)

// The analyzers read one interpretation of the IR: the sdf model evaluated
// per (rank, size). The two per-rank IR walkers it replaced are kept here
// as independent oracles. refRankComms is the enumeration walk that used
// to back Pass.Comms when sdf refused a recursive program, and refReqWalker
// is the request tracker PF010/PF011/PF031 used to run directly over the
// IR. TestSymbolicEnumerationAgree pins the stream and the request
// findings against them.

// refRankComms resolves the communication sequence of one rank by walking
// the IR in execution order: a DFS from the entry function, taking
// branches whose condition is nonzero for the rank, entering loops once
// with multiplicity scaled by the trip count, and following direct calls
// (external, indirect, and undefined callees are skipped; recursion is cut
// at the cycle). Sendrecv is expanded to an Isend toward the peer plus an
// Irecv from the symmetric partner, exactly as mpisim executes it.
func refRankComms(prog *ir.Program, rank, nranks int) []commOp {
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return nil
	}
	var out []commOp
	onStack := map[string]bool{entry.Name: true}
	var walk func(ns []ir.Node, fn string, mult float64, loops []*ir.Loop)
	walk = func(ns []ir.Node, fn string, mult float64, loops []*ir.Loop) {
		for _, n := range ns {
			switch x := n.(type) {
			case *ir.Comm:
				emit := func(op ir.CommKind, peer ir.Peer) {
					o := commOp{node: x, op: op, fn: fn, peer: -1, mult: mult,
						bytes: x.Bytes.Value(rank, nranks), loops: loops}
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
					walk(x.Body, fn, mult, loops)
				}
			case *ir.Loop:
				if trips := x.Trips.Value(rank, nranks); trips > 0 {
					walk(x.Body, fn, mult*trips, append(loops[:len(loops):len(loops)], x))
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
				walk(callee.Body, x.Callee, mult, loops)
				onStack[x.Callee] = false
			default:
				walk(n.Children(), fn, mult, loops)
			}
		}
	}
	walk(entry.Body, entry.Name, 1, nil)
	return out
}

// refRequestFindings is requestFindings computed by refReqWalker.
func refRequestFindings(ps *Pass, size int, code string) map[diagKey]Diagnostic {
	m := map[diagKey]Diagnostic{}
	for r := 0; r < size; r++ {
		rw := &refReqWalker{ps: ps, rank: r, size: size, code: code,
			pending: map[string]*ir.Comm{}, onStack: map[string]bool{}}
		if entry := ps.Prog.Function(ps.Prog.Entry); entry != nil {
			rw.onStack[entry.Name] = true
			rw.walk(entry.Body, entry.Name)
		}
		for req, node := range rw.pending {
			if code != "PF010" {
				continue
			}
			d := ps.diag(node, rw.issuedIn[node],
				"%s request %q is never completed by MPI_Wait or MPI_Waitall", node.Op, req)
			m[diagKey{node: d.Node, extra: req}] = d
		}
		for _, d := range rw.out {
			k := diagKey{node: d.Node, extra: d.Message}
			if _, dup := m[k]; !dup {
				m[k] = d
			}
		}
	}
	return m
}

// refReqWalker follows one rank's execution order through the IR, tracking
// which request names have a pending nonblocking operation. Branches and
// loops are resolved per rank like refRankComms; loop bodies are entered
// once, with a loop-carry check: a request issued inside a multi-trip loop
// and still pending at the body's end is reused by the next iteration.
type refReqWalker struct {
	ps         *Pass
	rank, size int
	code       string
	pending    map[string]*ir.Comm
	issuedIn   map[*ir.Comm]string // issuing node -> enclosing function
	onStack    map[string]bool
	out        []Diagnostic
}

func (rw *refReqWalker) issue(x *ir.Comm, fn string) {
	if rw.issuedIn == nil {
		rw.issuedIn = map[*ir.Comm]string{}
	}
	rw.pending[x.Req] = x
	rw.issuedIn[x] = fn
}

func (rw *refReqWalker) walk(ns []ir.Node, fn string) {
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Comm:
			switch x.Op {
			case ir.CommIsend, ir.CommIrecv:
				if x.Req == "" {
					continue
				}
				if prev, live := rw.pending[x.Req]; live && rw.code == "PF011" {
					d := rw.ps.diag(x, fn,
						"request %q reissued by %s before the pending %s completed", x.Req, x.Op, prev.Op)
					d.Related = append(d.Related, related(prev, "request %q previously issued here", x.Req))
					rw.out = append(rw.out, d)
				}
				rw.issue(x, fn)
			case ir.CommWait:
				delete(rw.pending, x.Req)
			case ir.CommWaitall:
				clear(rw.pending)
			}
		case *ir.Branch:
			if x.Taken.Value(rw.rank, rw.size) != 0 {
				rw.walk(x.Body, fn)
			}
		case *ir.Loop:
			trips := x.Trips.Value(rw.rank, rw.size)
			if trips <= 0 {
				continue
			}
			before := make(map[string]*ir.Comm, len(rw.pending))
			for req, node := range rw.pending {
				before[req] = node
			}
			rw.walk(x.Body, fn)
			if trips > 1 && rw.code == "PF011" {
				for req, node := range rw.pending {
					if before[req] == node {
						continue
					}
					d := rw.ps.diag(node, fn,
						"request %q issued inside loop %q is still pending at the end of the body; the next iteration reuses it", req, x.Name)
					rw.out = append(rw.out, d)
				}
			}
		case *ir.Call:
			if x.External || x.Indirect || rw.onStack[x.Callee] {
				continue
			}
			callee := rw.ps.Prog.Function(x.Callee)
			if callee == nil {
				continue
			}
			rw.onStack[x.Callee] = true
			rw.walk(callee.Body, x.Callee)
			rw.onStack[x.Callee] = false
		default:
			rw.walk(n.Children(), fn)
		}
	}
}

// recursivePrograms are hand-written programs with recursive call cycles,
// the case the old engine split handled by falling back to refRankComms.
var recursivePrograms = map[string]string{
	// main→a→b→a together with main→b: the b reached through a loses its
	// call to a, the direct b keeps it.
	"a-b-a": `program aba
func main file r.c line 1
  call a line 2
  call b line 3
  mpi waitall line 4
end
func a file r.c line 10
  mpi isend line 11 to right bytes 64 tag 1 req x
  loop la line 12 trips 3
    call b line 13
  end
  mpi irecv line 15 to left bytes 64 tag 1 req x
end
func b file r.c line 20
  mpi send line 21 to right bytes 8192 tag 2
  call a line 22
  mpi recv line 23 to left bytes 8192 tag 2
  mpi barrier line 24
end
`,
	// Self-recursion under a loop and a rank-dependent branch, a second
	// cycle g↔h, and a cycle nothing reaches.
	"self-and-mutual": `program rec2
func main file s.c line 1
  loop outer line 2 trips 2
    call f line 3
  end
  call g line 5
end
func f file s.c line 10
  branch even line 11 taken 0 add 0:1,2:1
    mpi isend line 12 to right bytes 32 tag 3 req q
  end
  call f line 14
  mpi irecv line 15 to left bytes 32 tag 3 req q
  mpi allreduce line 16 bytes 8
end
func g file s.c line 20
  call h line 21
end
func h file s.c line 25
  call g line 26
  mpi bcast line 27 bytes 16
end
func dead1 file s.c line 30
  call dead2 line 31
end
func dead2 file s.c line 35
  call dead1 line 36
end
`,
	// One loop visited on two call paths back to back, each with a
	// different recursion cut inside its body.
	"loop-two-paths": `program rec4
func main file t.c line 1
  call f line 2
  call a line 3
end
func f file t.c line 10
  loop L line 11 trips 2
    mpi isend line 12 to right bytes 16 tag 1 req r
    call a line 13
  end
end
func a file t.c line 20
  call f line 21
  mpi wait line 22 req r
  mpi irecv line 23 to left bytes 16 tag 1 req z
  mpi waitall line 24
end
`,
}

// genRecursiveProgram writes a random program over four functions whose
// calls may form cycles, with nested loops (some rank-dependent, some
// multi-trip), rank-dependent branches, and request traffic over two
// request names, so that loop visits, recursion cuts and pending requests
// interleave in every way the stream has to reproduce.
func genRecursiveProgram(rng *rand.Rand) string {
	var b strings.Builder
	line := 0
	next := func() int { line++; return line }
	trips := []string{"1", "2", "3", "0", "1 add 1:1", "2 slope -0.5", "0.5"}
	taken := []string{"1", "0 add 0:1", "0 add 1:1,3:1", "1 slope -0.25", "0 lowranks 2:1 add 0:1"}
	reqs := []string{"a", "b"}
	funcs := []string{"main", "f1", "f2", "f3"}
	var body func(depth int)
	body = func(depth int) {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch k := rng.Intn(12); {
			case k < 2:
				fmt.Fprintf(&b, "mpi isend line %d to right bytes 64 tag 1 req %s\n", next(), reqs[rng.Intn(2)])
			case k == 2:
				fmt.Fprintf(&b, "mpi irecv line %d to left bytes 64 tag 1 req %s\n", next(), reqs[rng.Intn(2)])
			case k == 3:
				fmt.Fprintf(&b, "mpi wait line %d req %s\n", next(), reqs[rng.Intn(2)])
			case k == 4:
				fmt.Fprintf(&b, "mpi waitall line %d\n", next())
			case k == 5:
				fmt.Fprintf(&b, "mpi sendrecv line %d to right bytes 16 tag 2\n", next())
			case k == 6:
				fmt.Fprintf(&b, "mpi barrier line %d\n", next())
			case k < 9 && depth < 2:
				fmt.Fprintf(&b, "loop l%d line %d trips %s\n", line, next(), trips[rng.Intn(len(trips))])
				body(depth + 1)
				b.WriteString("end\n")
			case k == 9 && depth < 2:
				fmt.Fprintf(&b, "branch c%d line %d taken %s\n", line, next(), taken[rng.Intn(len(taken))])
				body(depth + 1)
				b.WriteString("end\n")
			default:
				fmt.Fprintf(&b, "call %s line %d\n", funcs[rng.Intn(4)], next())
			}
		}
	}
	b.WriteString("program gen\n")
	for _, name := range funcs {
		fmt.Fprintf(&b, "func %s file g.c line %d\n", name, next())
		body(0)
		b.WriteString("end\n")
	}
	return b.String()
}

// oraclePrograms is the corpus of the oracle comparison: every clean
// program, every planted-defect fixture, the FuzzParse seed corpus, the
// hand-written recursive programs and a seeded family of random recursive
// ones. Lenient parsing keeps the defective programs; only inputs that
// fail FinalizeStructure are left out.
func oraclePrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := cleanPrograms(t)
	lenient := func(name, src string) {
		prog, err := ir.ParseLenient(strings.NewReader(src))
		if err != nil {
			return
		}
		out[name] = prog
	}
	bad, err := filepath.Glob("../../examples/dsl/bad/*.pfl")
	if err != nil || len(bad) == 0 {
		t.Fatalf("no bad fixtures found: %v", err)
	}
	for _, p := range bad {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lenient("bad/"+filepath.Base(p), string(data))
	}
	seeds, err := filepath.Glob("../ir/testdata/fuzz/FuzzParse/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzParse seeds found: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Seed files are "go test fuzz v1" followed by one string(...) line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		lenient("fuzz/"+filepath.Base(p), src)
	}
	for name, src := range recursivePrograms {
		lenient("rec/"+name, src)
		if out["rec/"+name] == nil {
			t.Fatalf("recursive program %s does not parse", name)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 150; i++ {
		lenient(fmt.Sprintf("gen/%03d", i), genRecursiveProgram(rng))
	}
	return out
}
