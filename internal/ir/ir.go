// Package ir defines the program intermediate representation that stands in
// for Dyninst's static binary analysis in the paper. A Program holds
// functions made of nested nodes — loops, branches, computation blocks,
// calls, MPI operations, thread-parallel regions, lock and allocator
// operations — each with file:line debug info, exactly the structure the
// paper's static analysis extracts from an executable (control flow, call
// relations, debug information, plus markers for calls that can only be
// resolved at runtime).
//
// Programs are built either with the fluent builder in this package or
// parsed from the textual DSL (see dsl.go). The mpisim and threadsim
// packages execute the IR; the collector package extracts the static PAG
// structure from it.
package ir

import (
	"fmt"
	"sort"
)

// NodeID uniquely identifies a node within a finalized Program. IDs are
// assigned in deterministic pre-order during Finalize.
type NodeID int32

// NoNode is the zero-ish invalid node ID.
const NoNode NodeID = -1

// CommKind enumerates the MPI operations the simulator understands.
type CommKind int

// Communication operation kinds.
const (
	CommSend      CommKind = iota // blocking send (rendezvous above eager threshold)
	CommRecv                      // blocking receive
	CommIsend                     // non-blocking send; completes at Wait/Waitall
	CommIrecv                     // non-blocking receive
	CommWait                      // wait for one named request
	CommWaitall                   // wait for all outstanding requests
	CommBarrier                   // barrier synchronization
	CommAllreduce                 // allreduce collective
	CommBcast                     // broadcast from rank 0
	CommReduce                    // reduce to rank 0
	CommAlltoall                  // all-to-all exchange
	CommAllgather                 // allgather collective
	CommSendrecv                  // fused send+receive (expanded by the simulator)
	CommGather                    // gather to rank 0
	CommScatter                   // scatter from rank 0
)

// String returns the MPI-style name of the communication kind.
func (k CommKind) String() string {
	switch k {
	case CommSend:
		return "MPI_Send"
	case CommRecv:
		return "MPI_Recv"
	case CommIsend:
		return "MPI_Isend"
	case CommIrecv:
		return "MPI_Irecv"
	case CommWait:
		return "MPI_Wait"
	case CommWaitall:
		return "MPI_Waitall"
	case CommBarrier:
		return "MPI_Barrier"
	case CommAllreduce:
		return "MPI_Allreduce"
	case CommBcast:
		return "MPI_Bcast"
	case CommReduce:
		return "MPI_Reduce"
	case CommAlltoall:
		return "MPI_Alltoall"
	case CommAllgather:
		return "MPI_Allgather"
	case CommSendrecv:
		return "MPI_Sendrecv"
	case CommGather:
		return "MPI_Gather"
	case CommScatter:
		return "MPI_Scatter"
	default:
		return fmt.Sprintf("MPI_Unknown(%d)", int(k))
	}
}

// IsCollective reports whether the kind synchronizes the whole communicator.
func (k CommKind) IsCollective() bool {
	switch k {
	case CommBarrier, CommAllreduce, CommBcast, CommReduce, CommAlltoall,
		CommAllgather, CommGather, CommScatter:
		return true
	}
	return false
}

// AllocKind enumerates memory-allocator operations (case study C: implicit
// allocator locking causes thread contention in Vite).
type AllocKind int

// Allocator operation kinds.
const (
	AllocAlloc AllocKind = iota
	AllocRealloc
	AllocDealloc
)

// String returns the allocator function name.
func (k AllocKind) String() string {
	switch k {
	case AllocAlloc:
		return "allocate"
	case AllocRealloc:
		return "reallocate"
	case AllocDealloc:
		return "deallocate"
	default:
		return fmt.Sprintf("alloc(%d)", int(k))
	}
}

// Info carries the identity shared by all node types: a name/label, debug
// info, and the ID assigned at finalize time.
type Info struct {
	id           NodeID
	lintSuppress []string // diagnostic codes muted on this node ("all" mutes everything)
	Name         string
	File         string
	Line         int
}

// ID returns the node's finalized ID (NoNode before Finalize).
func (n *Info) ID() NodeID { return n.id }

// SuppressLint mutes the given diagnostic codes on this node. The DSL
// parser calls it for "# lint:disable=CODE[,CODE]" comments preceding a
// statement; the special code "all" mutes every diagnostic.
func (n *Info) SuppressLint(codes ...string) {
	n.lintSuppress = append(n.lintSuppress, codes...)
}

// LintSuppressed reports whether the given diagnostic code is muted on
// this node.
func (n *Info) LintSuppressed(code string) bool {
	for _, c := range n.lintSuppress {
		if c == code || c == "all" {
			return true
		}
	}
	return false
}

// Debug returns "file:line", the paper's debug-info attribute.
func (n *Info) Debug() string {
	if n.File == "" {
		return ""
	}
	return fmt.Sprintf("%s:%d", n.File, n.Line)
}

// Node is any IR construct that can appear in a function body.
type Node interface {
	base() *Info
	// Children returns the nested body, or nil for leaves.
	Children() []Node
	// Kind returns a short lowercase kind tag ("loop", "comm", ...).
	Kind() string
}

// InfoOf returns the identity Info shared by every node type.
func InfoOf(n Node) *Info { return n.base() }

// Function is a single procedure.
type Function struct {
	Info
	Body []Node
}

func (f *Function) base() *Info      { return &f.Info }
func (f *Function) Children() []Node { return f.Body }

// Kind returns "function".
func (f *Function) Kind() string { return "function" }

// Loop is a counted loop. The simulator executes the body Trips(rank) times
// but cost accounting is closed-form: body costs are multiplied by the trip
// count rather than replayed per iteration, except for communication
// operations inside loops with CommPerIter set, which are replayed.
type Loop struct {
	Info
	Trips Expr // per-rank trip count
	// CommPerIter, when true, replays communication inside the loop once per
	// iteration (bounded by MaxSimIters in the simulator); when false, comm
	// ops inside execute once with costs scaled by the trip count.
	CommPerIter bool
	Body        []Node
}

func (l *Loop) base() *Info      { return &l.Info }
func (l *Loop) Children() []Node { return l.Body }

// Kind returns "loop".
func (l *Loop) Kind() string { return "loop" }

// Branch is a conditional region; the simulator executes the body on ranks
// where Taken evaluates nonzero.
type Branch struct {
	Info
	Taken Expr // nonzero = body executes on this rank
	Body  []Node
}

func (b *Branch) base() *Info      { return &b.Info }
func (b *Branch) Children() []Node { return b.Body }

// Kind returns "branch".
func (b *Branch) Kind() string { return "branch" }

// Compute is a straight-line computation block with a synthetic cost model:
// Cost is virtual time in microseconds; Flops and MemBytes drive the PMU
// synthesizer (instructions and cache-miss counters).
type Compute struct {
	Info
	Cost     Expr
	Flops    float64 // per microsecond of cost
	MemBytes float64 // per microsecond of cost; drives cache-miss synthesis
}

func (c *Compute) base() *Info      { return &c.Info }
func (c *Compute) Children() []Node { return nil }

// Kind returns "compute".
func (c *Compute) Kind() string { return "compute" }

// Call invokes another function of the program. Indirect calls cannot be
// resolved statically (paper §3.2) and are marked so the static extractor
// leaves a placeholder filled in during dynamic analysis.
type Call struct {
	Info
	Callee   string
	Indirect bool
	// External marks calls outside the program (libc and the like); they
	// have a flat Cost and no body.
	External bool
	Cost     Expr // only used when External
}

func (c *Call) base() *Info      { return &c.Info }
func (c *Call) Children() []Node { return nil }

// Kind returns "call".
func (c *Call) Kind() string { return "call" }

// Comm is an MPI operation.
type Comm struct {
	Info
	Op    CommKind
	Peer  Peer   // for point-to-point operations
	Bytes Expr   // message size
	Tag   int    // match tag for point-to-point
	Req   string // request name for Isend/Irecv/Wait
}

func (c *Comm) base() *Info      { return &c.Info }
func (c *Comm) Children() []Node { return nil }

// Kind returns "comm".
func (c *Comm) Kind() string { return "comm" }

// Parallel is a thread-parallel region (OpenMP parallel-for or a
// pthread_create fan-out; Model distinguishes them for naming only). The
// body is executed by each thread; Compute costs inside are divided across
// threads when Workshare is true (omp for) or replicated when false.
type Parallel struct {
	Info
	Threads   int  // 0 = simulator configuration default
	Workshare bool // divide compute cost across threads
	Model     ThreadModel
	Body      []Node
}

func (p *Parallel) base() *Info      { return &p.Info }
func (p *Parallel) Children() []Node { return p.Body }

// Kind returns "parallel".
func (p *Parallel) Kind() string { return "parallel" }

// ThreadModel names the threading API a Parallel region represents.
type ThreadModel int

// Thread models.
const (
	ModelOpenMP ThreadModel = iota
	ModelPthreads
)

// String returns the display name of the region's threading API.
func (m ThreadModel) String() string {
	if m == ModelPthreads {
		return "pthread_create"
	}
	return "omp_parallel"
}

// Mutex is an explicit lock/unlock-protected critical section: the body
// executes under the named mutex, serializing across threads.
type Mutex struct {
	Info
	LockName string
	Hold     Expr // critical-section length per acquisition
	Count    Expr // acquisitions per execution
}

func (m *Mutex) base() *Info      { return &m.Info }
func (m *Mutex) Children() []Node { return nil }

// Kind returns "mutex".
func (m *Mutex) Kind() string { return "mutex" }

// Alloc is a memory-allocator call; allocator calls serialize on the
// process-wide implicit allocator lock (case study C).
type Alloc struct {
	Info
	Op    AllocKind
	Count Expr // calls per execution
	Hold  Expr // allocator critical-section length per call (µs)
}

func (a *Alloc) base() *Info      { return &a.Info }
func (a *Alloc) Children() []Node { return nil }

// Kind returns "alloc".
func (a *Alloc) Kind() string { return "alloc" }

// Program is a complete application model.
type Program struct {
	Name  string
	Entry string // entry function, usually "main"

	// KLoC and BinaryBytes are the synthetic "code size" and "binary size"
	// reported in Table 2; workloads set them to mirror the paper's scale.
	KLoC        float64
	BinaryBytes int64

	Functions []*Function

	indexed   bool // FinalizeStructure ran: node IDs and function index built
	validated bool // Finalize ran Validate on the indexed program and it passed
	byID      []Node
	funcIdx   map[string]*Function
}

// Function returns the function with the given name, or nil.
func (p *Program) Function(name string) *Function {
	if p.funcIdx != nil {
		return p.funcIdx[name]
	}
	for _, f := range p.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Node returns the node with the given finalized ID, or nil.
func (p *Program) Node(id NodeID) Node {
	if !p.indexed || id < 0 || int(id) >= len(p.byID) {
		return nil
	}
	return p.byID[id]
}

// FunctionOf returns the function whose body holds the node with the
// given ID (the function itself for a function's own ID), or nil. IDs are
// assigned in pre-order one function after another, so each function owns
// a contiguous ID range starting at its own.
func (p *Program) FunctionOf(id NodeID) *Function {
	if !p.indexed || id < 0 || int(id) >= len(p.byID) {
		return nil
	}
	i := sort.Search(len(p.Functions), func(i int) bool { return p.Functions[i].id > id })
	return p.Functions[i-1]
}

// NumNodes returns the total node count after Finalize.
func (p *Program) NumNodes() int { return len(p.byID) }

// Finalized reports whether the program's structure is indexed (node IDs
// and function index built) by FinalizeStructure or Finalize. It does not
// say whether the program was validated: only a nil Finalize does.
func (p *Program) Finalized() bool { return p.indexed }

// Finalize assigns deterministic pre-order node IDs, builds the function
// index, and validates the program. It is idempotent once it has succeeded,
// and an earlier FinalizeStructure does not let it skip validation.
func (p *Program) Finalize() error {
	if p.validated {
		return nil
	}
	if err := p.FinalizeStructure(); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		p.indexed = false
		return err
	}
	p.validated = true
	return nil
}

// FinalizeStructure assigns node IDs and builds the function index without
// running semantic validation. It is the entry point for the lint driver,
// which wants positionable node IDs even for programs Validate would
// reject, so that every defect can be reported instead of only the
// blocking ones. Like Finalize it is idempotent.
func (p *Program) FinalizeStructure() error {
	if p.indexed {
		return nil
	}
	p.funcIdx = make(map[string]*Function, len(p.Functions))
	for _, f := range p.Functions {
		if _, dup := p.funcIdx[f.Name]; dup {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		p.funcIdx[f.Name] = f
	}
	if p.Entry == "" {
		p.Entry = "main"
	}
	if p.funcIdx[p.Entry] == nil {
		return fmt.Errorf("ir: entry function %q not defined", p.Entry)
	}
	p.byID = p.byID[:0]
	for _, f := range p.Functions {
		p.assign(f)
	}
	p.indexed = true
	return nil
}

func (p *Program) assign(n Node) {
	n.base().id = NodeID(len(p.byID))
	p.byID = append(p.byID, n)
	for _, c := range n.Children() {
		p.assign(c)
	}
}

// Walk visits every node of the program in pre-order (functions in
// declaration order), calling fn with each node and its parent (nil for
// functions).
func (p *Program) Walk(fn func(n, parent Node)) {
	var rec func(n, parent Node)
	rec = func(n, parent Node) {
		fn(n, parent)
		for _, c := range n.Children() {
			rec(c, n)
		}
	}
	for _, f := range p.Functions {
		rec(f, nil)
	}
}
