package ir

// A small line-oriented DSL for defining programs in text files, mirroring
// what the builder API does in Go. The pflow CLI accepts programs in this
// format, standing in for "take an executable binary as input".
//
// Grammar (one statement per line, '#' comments, indentation free):
//
//	program NAME
//	kloc FLOAT
//	binary INT
//	entry NAME
//	func NAME file FILE line N
//	  compute NAME line N cost EXPR [flops F] [mem F]
//	  loop NAME line N trips EXPR [comm-per-iter]
//	    ... body ...
//	  end
//	  branch NAME line N taken EXPR
//	    ... body ...
//	  end
//	  call NAME line N [indirect]
//	  extern NAME line N cost EXPR
//	  mpi send|recv|isend|irecv line N to PEER bytes EXPR tag N [req NAME]
//	  mpi wait line N req NAME
//	  mpi waitall|barrier line N
//	  mpi allreduce|bcast|reduce|alltoall|allgather|gather|scatter line N bytes EXPR
//	  mpi sendrecv line N to PEER bytes EXPR tag N
//	  parallel NAME line N threads N [workshare] [pthreads]
//	    ... body ...
//	  end
//	  kernel NAME line N cost EXPR [h2d EXPR] [d2h EXPR] [stream N] [async]
//	  devsync line N [stream N]
//	  mutex NAME line N count EXPR hold EXPR
//	  alloc allocate|reallocate|deallocate line N count EXPR hold EXPR
//	end
//
// EXPR is VALUE[/P|/sqrtP|*logP] optionally followed by modifier tokens
// `slope F`, `factor R:F[,R:F...]`, `add R:F[,...]`, `lowranks K:F`
// (first K ranks multiplied by F).
//
// PEER is right[+N] | left[+N] | rank N | xor N | halo2d N | any
// (wildcard source, receive operations only).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseError reports a DSL syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ir: dsl line %d: %s", e.Line, e.Msg)
}

// Parse reads a program in the DSL format and finalizes it.
func Parse(r io.Reader) (*Program, error) {
	prog, err := ParseLenient(r)
	if err != nil {
		return nil, err
	}
	if err := prog.Finalize(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseLenient reads a program in the DSL format and assigns node IDs, but
// skips semantic validation, so programs with defects (undefined callees,
// missing peers, and the like) still come back as positionable IR. The lint
// driver uses it to report every finding in a bad program instead of
// stopping at the first Validate error. Syntax errors still fail.
func ParseLenient(r io.Reader) (*Program, error) {
	p := &parser{scan: bufio.NewScanner(r), prog: &Program{Entry: "main"}}
	if err := p.parse(); err != nil {
		return nil, err
	}
	if err := p.prog.FinalizeStructure(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// ParseString parses a DSL program held in a string.
func ParseString(s string) (*Program, error) {
	return Parse(strings.NewReader(s))
}

type parser struct {
	scan    *bufio.Scanner
	prog    *Program
	line    int
	pending []string // lint:disable codes waiting for the next statement
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) next() ([]string, bool) {
	for p.scan.Scan() {
		p.line++
		text := strings.TrimSpace(p.scan.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if codes, ok := parseLintDisable(text); ok {
				p.pending = append(p.pending, codes...)
			}
			continue
		}
		return strings.Fields(text), true
	}
	return nil, false
}

// takeSuppress consumes the lint:disable codes accumulated from comments
// since the previous statement.
func (p *parser) takeSuppress() []string {
	s := p.pending
	p.pending = nil
	return s
}

// parseLintDisable recognizes "# lint:disable" and "# lint:disable=CODE[,CODE]"
// comment lines. A bare disable mutes everything ("all").
func parseLintDisable(text string) ([]string, bool) {
	rest := strings.TrimSpace(strings.TrimLeft(text, "#"))
	if !strings.HasPrefix(rest, "lint:disable") {
		return nil, false
	}
	rest = strings.TrimPrefix(rest, "lint:disable")
	if rest == "" {
		return []string{"all"}, true
	}
	if !strings.HasPrefix(rest, "=") {
		return nil, false
	}
	var codes []string
	for _, c := range strings.Split(rest[1:], ",") {
		if c = strings.TrimSpace(c); c != "" {
			codes = append(codes, c)
		}
	}
	if len(codes) == 0 {
		return []string{"all"}, true
	}
	return codes, true
}

func (p *parser) parse() error {
	for {
		tok, ok := p.next()
		if !ok {
			break
		}
		switch tok[0] {
		case "program":
			if len(tok) < 2 {
				return p.errf("program needs a name")
			}
			p.prog.Name = tok[1]
		case "kloc":
			v, err := p.floatArg(tok, 1)
			if err != nil {
				return err
			}
			p.prog.KLoC = v
		case "binary":
			v, err := p.floatArg(tok, 1)
			if err != nil {
				return err
			}
			p.prog.BinaryBytes = int64(v)
		case "entry":
			if len(tok) < 2 {
				return p.errf("entry needs a name")
			}
			p.prog.Entry = tok[1]
		case "func":
			sup := p.takeSuppress()
			if err := p.parseFunc(tok); err != nil {
				return err
			}
			if len(sup) > 0 {
				p.prog.Functions[len(p.prog.Functions)-1].SuppressLint(sup...)
			}
		default:
			return p.errf("unexpected top-level statement %q", tok[0])
		}
	}
	if p.prog.Name == "" {
		return &ParseError{Line: 0, Msg: "missing program declaration"}
	}
	return nil
}

func (p *parser) parseFunc(tok []string) error {
	if len(tok) < 2 {
		return p.errf("func needs a name")
	}
	kv := keyvals(tok[2:])
	f := &Function{Info: Info{id: NoNode, Name: tok[1], File: kv["file"]}}
	if l, ok := kv["line"]; ok {
		n, err := strconv.Atoi(l)
		if err != nil {
			return p.errf("bad line %q", l)
		}
		f.Line = n
	}
	if err := p.parseBody(&f.Body, f.File, false); err != nil {
		return err
	}
	p.prog.Functions = append(p.prog.Functions, f)
	return nil
}

// parseBody reads statements until "end" (or EOF error) into nodes.
func (p *parser) parseBody(nodes *[]Node, file string, inParallel bool) error {
	for {
		tok, ok := p.next()
		if !ok {
			return p.errf("unexpected end of input, missing 'end'")
		}
		if tok[0] == "end" {
			return nil
		}
		sup := p.takeSuppress()
		n, err := p.parseStmt(tok, file, inParallel)
		if err != nil {
			return err
		}
		if len(sup) > 0 {
			InfoOf(n).SuppressLint(sup...)
		}
		*nodes = append(*nodes, n)
	}
}

func (p *parser) parseStmt(tok []string, file string, inParallel bool) (Node, error) {
	switch tok[0] {
	case "compute":
		if len(tok) < 2 {
			return nil, p.errf("compute needs a name")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		cost, err := p.exprKV(kv, "cost")
		if err != nil {
			return nil, err
		}
		c := &Compute{Info: Info{id: NoNode, Name: tok[1], File: file, Line: line}, Cost: cost, Flops: 2, MemBytes: 8}
		if v, ok := kv["flops"]; ok {
			if c.Flops, err = parseFloat(v); err != nil {
				return nil, p.errf("bad flops %q", v)
			}
		}
		if v, ok := kv["mem"]; ok {
			if c.MemBytes, err = parseFloat(v); err != nil {
				return nil, p.errf("bad mem %q", v)
			}
		}
		return c, nil

	case "loop":
		if len(tok) < 2 {
			return nil, p.errf("loop needs a label")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		trips, err := p.exprKV(kv, "trips")
		if err != nil {
			return nil, err
		}
		l := &Loop{Info: Info{id: NoNode, Name: tok[1], File: file, Line: line}, Trips: trips}
		l.CommPerIter = hasFlag(tok, "comm-per-iter")
		if err := p.parseBody(&l.Body, file, inParallel); err != nil {
			return nil, err
		}
		return l, nil

	case "branch":
		if len(tok) < 2 {
			return nil, p.errf("branch needs a label")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		taken, err := p.exprKV(kv, "taken")
		if err != nil {
			return nil, err
		}
		b := &Branch{Info: Info{id: NoNode, Name: tok[1], File: file, Line: line}, Taken: taken}
		if err := p.parseBody(&b.Body, file, inParallel); err != nil {
			return nil, err
		}
		return b, nil

	case "call":
		if len(tok) < 2 {
			return nil, p.errf("call needs a callee")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		return &Call{
			Info:     Info{id: NoNode, Name: tok[1], File: file, Line: line},
			Callee:   tok[1],
			Indirect: hasFlag(tok, "indirect"),
		}, nil

	case "extern":
		if len(tok) < 2 {
			return nil, p.errf("extern needs a name")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		cost, err := p.exprKV(kv, "cost")
		if err != nil {
			return nil, err
		}
		return &Call{
			Info:     Info{id: NoNode, Name: tok[1], File: file, Line: line},
			Callee:   tok[1],
			External: true,
			Cost:     cost,
		}, nil

	case "mpi":
		return p.parseMPI(tok, file)

	case "kernel":
		if len(tok) < 2 {
			return nil, p.errf("kernel needs a name")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		cost, err := p.exprKV(kv, "cost")
		if err != nil {
			return nil, err
		}
		k := &Kernel{Info: Info{id: NoNode, Name: tok[1], File: file, Line: line}, Cost: cost}
		if v, ok := kv["h2d"]; ok {
			if k.H2D, err = parseExpr(v, kv); err != nil {
				return nil, p.errf("bad h2d: %v", err)
			}
		}
		if v, ok := kv["d2h"]; ok {
			if k.D2H, err = parseExpr(v, kv); err != nil {
				return nil, p.errf("bad d2h: %v", err)
			}
		}
		if v, ok := kv["stream"]; ok {
			if k.Strm, err = strconv.Atoi(v); err != nil {
				return nil, p.errf("bad stream %q", v)
			}
		}
		k.Async = hasFlag(tok, "async")
		return k, nil

	case "devsync":
		kv := keyvals(tok[1:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		strm := -1
		if v, ok := kv["stream"]; ok {
			if strm, err = strconv.Atoi(v); err != nil {
				return nil, p.errf("bad stream %q", v)
			}
		}
		return &DeviceSync{Info: Info{id: NoNode, Name: syncName(strm), File: file, Line: line}, Strm: strm}, nil

	case "parallel":
		if inParallel {
			return nil, p.errf("nested parallel regions are not supported")
		}
		if len(tok) < 2 {
			return nil, p.errf("parallel needs a label")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		threads := 0
		if v, ok := kv["threads"]; ok {
			if threads, err = strconv.Atoi(v); err != nil {
				return nil, p.errf("bad threads %q", v)
			}
		}
		model := ModelOpenMP
		if hasFlag(tok, "pthreads") {
			model = ModelPthreads
		}
		par := &Parallel{
			Info:      Info{id: NoNode, Name: tok[1], File: file, Line: line},
			Threads:   threads,
			Workshare: hasFlag(tok, "workshare"),
			Model:     model,
		}
		if err := p.parseBody(&par.Body, file, true); err != nil {
			return nil, err
		}
		return par, nil

	case "mutex":
		if len(tok) < 2 {
			return nil, p.errf("mutex needs a lock name")
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		count, err := p.exprKV(kv, "count")
		if err != nil {
			return nil, err
		}
		hold, err := p.exprKV(kv, "hold")
		if err != nil {
			return nil, err
		}
		return &Mutex{Info: Info{id: NoNode, Name: tok[1], File: file, Line: line}, LockName: tok[1], Count: count, Hold: hold}, nil

	case "alloc":
		if len(tok) < 2 {
			return nil, p.errf("alloc needs an operation")
		}
		var op AllocKind
		switch tok[1] {
		case "allocate":
			op = AllocAlloc
		case "reallocate":
			op = AllocRealloc
		case "deallocate":
			op = AllocDealloc
		default:
			return nil, p.errf("unknown alloc op %q", tok[1])
		}
		kv := keyvals(tok[2:])
		line, err := p.intKV(kv, "line")
		if err != nil {
			return nil, err
		}
		count, err := p.exprKV(kv, "count")
		if err != nil {
			return nil, err
		}
		hold, err := p.exprKV(kv, "hold")
		if err != nil {
			return nil, err
		}
		return &Alloc{Info: Info{id: NoNode, Name: op.String(), File: file, Line: line}, Op: op, Count: count, Hold: hold}, nil

	default:
		return nil, p.errf("unknown statement %q", tok[0])
	}
}

func (p *parser) parseMPI(tok []string, file string) (Node, error) {
	if len(tok) < 2 {
		return nil, p.errf("mpi needs an operation")
	}
	var op CommKind
	switch tok[1] {
	case "send":
		op = CommSend
	case "recv":
		op = CommRecv
	case "isend":
		op = CommIsend
	case "irecv":
		op = CommIrecv
	case "wait":
		op = CommWait
	case "waitall":
		op = CommWaitall
	case "barrier":
		op = CommBarrier
	case "allreduce":
		op = CommAllreduce
	case "bcast":
		op = CommBcast
	case "reduce":
		op = CommReduce
	case "alltoall":
		op = CommAlltoall
	case "allgather":
		op = CommAllgather
	case "sendrecv":
		op = CommSendrecv
	case "gather":
		op = CommGather
	case "scatter":
		op = CommScatter
	default:
		return nil, p.errf("unknown mpi operation %q", tok[1])
	}
	kv := keyvals(tok[2:])
	line, err := p.intKV(kv, "line")
	if err != nil {
		return nil, err
	}
	c := &Comm{Info: Info{id: NoNode, Name: op.String(), File: file, Line: line}, Op: op}
	if v, ok := kv["to"]; ok {
		peer, err := parsePeer(v, kv)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		c.Peer = peer
	}
	if v, ok := kv["bytes"]; ok {
		e, err := parseExpr(v, kv)
		if err != nil {
			return nil, p.errf("bad bytes: %v", err)
		}
		c.Bytes = e
	}
	if v, ok := kv["tag"]; ok {
		if c.Tag, err = strconv.Atoi(v); err != nil {
			return nil, p.errf("bad tag %q", v)
		}
	}
	c.Req = kv["req"]
	return c, nil
}

// keyvals turns ["line" "5" "cost" "10/P" "workshare"] into a map; flag
// tokens without values map to "".
func keyvals(toks []string) map[string]string {
	known := map[string]bool{
		"file": true, "line": true, "cost": true, "trips": true, "taken": true,
		"flops": true, "mem": true, "to": true, "bytes": true, "tag": true,
		"req": true, "threads": true, "count": true, "hold": true,
		"slope": true, "factor": true, "add": true, "lowranks": true, "arg": true,
		"h2d": true, "d2h": true, "stream": true,
	}
	kv := map[string]string{}
	for i := 0; i < len(toks); i++ {
		if known[toks[i]] && i+1 < len(toks) {
			kv[toks[i]] = toks[i+1]
			i++
		}
	}
	return kv
}

func hasFlag(toks []string, flag string) bool {
	for _, t := range toks {
		if t == flag {
			return true
		}
	}
	return false
}

func (p *parser) floatArg(tok []string, i int) (float64, error) {
	if len(tok) <= i {
		return 0, p.errf("%s needs a value", tok[0])
	}
	v, err := parseFloat(tok[i])
	if err != nil {
		return 0, p.errf("bad number %q", tok[i])
	}
	return v, nil
}

// parseFloat is strconv.ParseFloat restricted to finite numbers.
// strconv accepts "nan", "inf" and "infinity", and those poison every
// closed form they reach (a NaN trip count lints as NaN sends, an infinite
// one predicts no traffic). Every number the DSL reads goes through here,
// so the caller's positioned "bad ..." error covers them.
func parseFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return v, nil
}

func (p *parser) intKV(kv map[string]string, key string) (int, error) {
	v, ok := kv[key]
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, p.errf("bad %s %q", key, v)
	}
	return n, nil
}

func (p *parser) exprKV(kv map[string]string, key string) (Expr, error) {
	v, ok := kv[key]
	if !ok {
		return Expr{}, p.errf("missing %s", key)
	}
	e, err := parseExpr(v, kv)
	if err != nil {
		return Expr{}, p.errf("bad %s: %v", key, err)
	}
	return e, nil
}

// parseExpr parses "VALUE[/P|/sqrtP|*logP]" plus modifier entries from kv.
func parseExpr(val string, kv map[string]string) (Expr, error) {
	var e Expr
	base := val
	switch {
	case strings.HasSuffix(val, "/sqrtP"):
		e.Scaling = ScaleInvSqrt
		base = strings.TrimSuffix(val, "/sqrtP")
	case strings.HasSuffix(val, "/P"):
		e.Scaling = ScaleInvP
		base = strings.TrimSuffix(val, "/P")
	case strings.HasSuffix(val, "*logP"):
		e.Scaling = ScaleLogP
		base = strings.TrimSuffix(val, "*logP")
	}
	b, err := parseFloat(base)
	if err != nil {
		return Expr{}, fmt.Errorf("bad value %q", val)
	}
	e.Base = b
	if s, ok := kv["slope"]; ok {
		if e.Slope, err = parseFloat(s); err != nil {
			return Expr{}, fmt.Errorf("bad slope %q", s)
		}
	}
	if f, ok := kv["factor"]; ok {
		if e.Factor, err = parseRankMap(f); err != nil {
			return Expr{}, err
		}
	}
	if a, ok := kv["add"]; ok {
		if e.Add, err = parseRankMap(a); err != nil {
			return Expr{}, err
		}
	}
	if lr, ok := kv["lowranks"]; ok {
		parts := strings.SplitN(lr, ":", 2)
		if len(parts) != 2 {
			return Expr{}, fmt.Errorf("bad lowranks %q (want K:F)", lr)
		}
		k, err1 := strconv.Atoi(parts[0])
		f, err2 := parseFloat(parts[1])
		if err1 != nil || err2 != nil {
			return Expr{}, fmt.Errorf("bad lowranks %q", lr)
		}
		e.FactorLowCount, e.FactorLowRanks = k, f
	}
	return e, nil
}

func parseRankMap(s string) (map[int]float64, error) {
	m := map[int]float64{}
	for _, pair := range strings.Split(s, ",") {
		parts := strings.SplitN(pair, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad rank map entry %q (want R:F)", pair)
		}
		r, err1 := strconv.Atoi(parts[0])
		f, err2 := parseFloat(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad rank map entry %q", pair)
		}
		m[r] = f
	}
	return m, nil
}

func parsePeer(v string, kv map[string]string) (Peer, error) {
	arg := 0
	if a, ok := kv["arg"]; ok {
		n, err := strconv.Atoi(a)
		if err != nil {
			return Peer{}, fmt.Errorf("bad peer arg %q", a)
		}
		arg = n
	}
	switch {
	case v == "right":
		return Peer{Kind: PeerRight, Arg: arg}, nil
	case v == "left":
		return Peer{Kind: PeerLeft, Arg: arg}, nil
	case strings.HasPrefix(v, "right+"):
		n, err := strconv.Atoi(strings.TrimPrefix(v, "right+"))
		if err != nil {
			return Peer{}, fmt.Errorf("bad peer %q", v)
		}
		return Peer{Kind: PeerRight, Arg: n}, nil
	case strings.HasPrefix(v, "left+"):
		n, err := strconv.Atoi(strings.TrimPrefix(v, "left+"))
		if err != nil {
			return Peer{}, fmt.Errorf("bad peer %q", v)
		}
		return Peer{Kind: PeerLeft, Arg: n}, nil
	case v == "rank":
		return Peer{Kind: PeerConst, Arg: arg}, nil
	case strings.HasPrefix(v, "rank"):
		n, err := strconv.Atoi(strings.TrimPrefix(v, "rank"))
		if err != nil {
			return Peer{}, fmt.Errorf("bad peer %q", v)
		}
		return Peer{Kind: PeerConst, Arg: n}, nil
	case v == "xor":
		return Peer{Kind: PeerXor, Arg: arg}, nil
	case strings.HasPrefix(v, "xor"):
		n, err := strconv.Atoi(strings.TrimPrefix(v, "xor"))
		if err != nil {
			return Peer{}, fmt.Errorf("bad peer %q", v)
		}
		return Peer{Kind: PeerXor, Arg: n}, nil
	case v == "halo2d":
		return Peer{Kind: PeerHalo2D, Arg: arg}, nil
	case v == "any":
		return Peer{Kind: PeerAny}, nil
	default:
		return Peer{}, fmt.Errorf("unknown peer pattern %q", v)
	}
}
