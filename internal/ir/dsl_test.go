package ir

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoDSL = `
# A demo MPI+threads program in the PerFlow DSL.
program demo
kloc 2.5
binary 222000
entry main

func main file main.c line 1
  compute init line 3 cost 100 flops 4 mem 16
  loop loop_1 line 5 trips 10 comm-per-iter
    call work line 6
    mpi isend line 7 to right bytes 1024 tag 1 req r1
    mpi irecv line 8 to left bytes 1024 tag 1 req r2
    mpi waitall line 9
  end
  branch check line 11 taken 1
    mpi allreduce line 12 bytes 8
  end
  parallel region line 14 threads 4 workshare
    compute body line 15 cost 50/P
    alloc allocate line 16 count 10 hold 0.5
    mutex biglock line 17 count 2 hold 1.5
  end
  extern memcpy line 19 cost 2
end

func work file work.c line 1
  compute kernel line 2 cost 1000/P factor 0:3.0,1:2.0
  mpi send line 4 to xor1 bytes 4096 tag 7
  mpi recv line 5 to xor1 bytes 4096 tag 7
end
`

func TestParseDemo(t *testing.T) {
	p, err := ParseString(demoDSL)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if p.Name != "demo" || p.KLoC != 2.5 || p.BinaryBytes != 222000 {
		t.Errorf("header wrong: %q %v %v", p.Name, p.KLoC, p.BinaryBytes)
	}
	st := p.CollectStats()
	if st.Functions != 2 {
		t.Errorf("functions = %d", st.Functions)
	}
	if st.Loops != 1 || st.Branches != 1 || st.Parallels != 1 {
		t.Errorf("structure counts wrong: %+v", st)
	}
	if st.CommOps != 6 {
		t.Errorf("comm ops = %d, want 6", st.CommOps)
	}

	main := p.Function("main")
	cmp, ok := main.Body[0].(*Compute)
	if !ok || cmp.Cost.Base != 100 || cmp.Flops != 4 || cmp.MemBytes != 16 {
		t.Errorf("compute parsed wrong: %+v", main.Body[0])
	}
	loop, ok := main.Body[1].(*Loop)
	if !ok || !loop.CommPerIter || loop.Trips.Base != 10 {
		t.Errorf("loop parsed wrong: %+v", main.Body[1])
	}
	isend := loop.Body[1].(*Comm)
	if isend.Op != CommIsend || isend.Peer.Kind != PeerRight || isend.Req != "r1" || isend.Tag != 1 {
		t.Errorf("isend parsed wrong: %+v", isend)
	}
	par := main.Body[3].(*Parallel)
	if par.Threads != 4 || !par.Workshare || par.Model != ModelOpenMP {
		t.Errorf("parallel parsed wrong: %+v", par)
	}
	body := par.Body[0].(*Compute)
	if body.Cost.Scaling != ScaleInvP {
		t.Errorf("scaled cost parsed wrong: %+v", body.Cost)
	}
	al := par.Body[1].(*Alloc)
	if al.Op != AllocAlloc || al.Count.Base != 10 || al.Hold.Base != 0.5 {
		t.Errorf("alloc parsed wrong: %+v", al)
	}
	mx := par.Body[2].(*Mutex)
	if mx.LockName != "biglock" || mx.Hold.Base != 1.5 {
		t.Errorf("mutex parsed wrong: %+v", mx)
	}
	ext := main.Body[4].(*Call)
	if !ext.External || ext.Cost.Base != 2 {
		t.Errorf("extern parsed wrong: %+v", ext)
	}

	work := p.Function("work")
	kernel := work.Body[0].(*Compute)
	if kernel.Cost.Factor[0] != 3.0 || kernel.Cost.Factor[1] != 2.0 {
		t.Errorf("factor map parsed wrong: %+v", kernel.Cost)
	}
	send := work.Body[1].(*Comm)
	if send.Peer.Kind != PeerXor || send.Peer.Arg != 1 {
		t.Errorf("xor peer parsed wrong: %+v", send.Peer)
	}
}

func TestParseRoundTripThroughSim(t *testing.T) {
	p, err := ParseString(demoDSL)
	if err != nil {
		t.Fatal(err)
	}
	// Debug info should be attached with the function's file.
	loop := p.Function("main").Body[1].(*Loop)
	if loop.Debug() != "main.c:5" {
		t.Errorf("loop debug = %q", loop.Debug())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no program", "func main file m.c line 1\nend\n", "missing program"},
		{"bad statement", "program x\nfunc main file m.c line 1\nfrobnicate\nend\n", "unknown statement"},
		{"missing end", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1\n", "missing 'end'"},
		{"bad cost", "program x\nfunc main file m.c line 1\ncompute a line 2 cost abc\nend\n", "bad cost"},
		{"missing cost", "program x\nfunc main file m.c line 1\ncompute a line 2\nend\n", "missing cost"},
		{"bad mpi op", "program x\nfunc main file m.c line 1\nmpi teleport line 2\nend\n", "unknown mpi"},
		{"bad peer", "program x\nfunc main file m.c line 1\nmpi send line 2 to nowhere bytes 8 tag 0\nend\n", "peer"},
		{"undefined callee", "program x\nfunc main file m.c line 1\ncall ghost line 2\nend\n", "ghost"},
		{"bad alloc op", "program x\nfunc main file m.c line 1\nalloc conjure line 2 count 1 hold 1\nend\n", "unknown alloc"},
		{"nested parallel", "program x\nfunc main file m.c line 1\nparallel a line 2 threads 2\nparallel b line 3 threads 2\nend\nend\nend\n", "nested"},
		{"bad lowranks", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 lowranks nope\nend\n", "lowranks"},
		{"bad factor", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 factor x\nend\n", "rank map"},
		{"top-level junk", "program x\nwibble\n", "unexpected top-level"},
		{"nan trips", "program x\nfunc main file m.c line 1\nloop l line 2 trips nan\ncompute a line 3 cost 1\nend\nend\n", "line 3: bad trips"},
		{"inf trips", "program x\nfunc main file m.c line 1\nloop l line 2 trips inf\ncompute a line 3 cost 1\nend\nend\n", "line 3: bad trips"},
		{"-infinity cost", "program x\nfunc main file m.c line 1\ncompute a line 2 cost -Infinity\nend\n", "line 3: bad cost"},
		{"nan slope", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 slope NaN\nend\n", "line 3: bad cost"},
		{"inf factor", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 factor 0:inf\nend\n", "line 3: bad cost"},
		{"nan add", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 add 1:nan\nend\n", "line 3: bad cost"},
		{"inf lowranks", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 lowranks 2:+inf\nend\n", "line 3: bad cost"},
		{"nan flops", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 flops nan\nend\n", "line 3: bad flops"},
		{"inf mem", "program x\nfunc main file m.c line 1\ncompute a line 2 cost 1 mem inf\nend\n", "line 3: bad mem"},
		{"nan bytes", "program x\nfunc main file m.c line 1\nmpi allreduce line 2 bytes nan\nend\n", "line 3: bad bytes"},
		{"inf kloc", "program x\nkloc inf\n", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("program x\nfunc main file m.c line 1\nfrobnicate\nend\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestParsePeerVariants(t *testing.T) {
	src := `program p
func main file m.c line 1
  mpi send line 2 to right+2 bytes 8 tag 0
  mpi send line 3 to left+3 bytes 8 tag 0
  mpi send line 4 to rank0 bytes 8 tag 0
  mpi send line 5 to halo2d arg 2 bytes 8 tag 0
  mpi recv line 6 to right bytes 8 tag 0
end
`
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Function("main").Body
	wants := []Peer{
		{Kind: PeerRight, Arg: 2},
		{Kind: PeerLeft, Arg: 3},
		{Kind: PeerConst, Arg: 0},
		{Kind: PeerHalo2D, Arg: 2},
		{Kind: PeerRight},
	}
	for i, w := range wants {
		got := body[i].(*Comm).Peer
		if got != w {
			t.Errorf("peer %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestParseGPUStatements(t *testing.T) {
	src := `program gpu
func main file m.cu line 1
  kernel interior line 3 cost 900/P h2d 32768 stream 1 async
  compute host line 4 cost 50
  devsync line 5 stream 1
  kernel boundary line 6 cost 60 d2h 4096
  devsync line 7
end
`
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Function("main").Body
	k := body[0].(*Kernel)
	if !k.Async || k.Strm != 1 || k.Cost.Scaling != ScaleInvP || k.H2D.Base != 32768 {
		t.Errorf("async kernel parsed wrong: %+v", k)
	}
	ds := body[2].(*DeviceSync)
	if ds.Strm != 1 {
		t.Errorf("stream sync parsed wrong: %+v", ds)
	}
	k2 := body[3].(*Kernel)
	if k2.Async || k2.D2H.Base != 4096 {
		t.Errorf("sync kernel parsed wrong: %+v", k2)
	}
	all := body[4].(*DeviceSync)
	if all.Strm != -1 || all.Name != "cudaDeviceSynchronize" {
		t.Errorf("device sync parsed wrong: %+v", all)
	}
}

func TestParseGPUErrors(t *testing.T) {
	if _, err := ParseString("program x\nfunc main file m.cu line 1\nkernel k line 2\nend\n"); err == nil {
		t.Error("kernel without cost should error")
	}
	if _, err := ParseString("program x\nfunc main file m.cu line 1\nkernel k line 2 cost 5 stream abc\nend\n"); err == nil {
		t.Error("bad stream should error")
	}
}

func TestParseExampleDSLFiles(t *testing.T) {
	// Every shipped .pfl sample must parse, validate, and keep its header.
	files, err := filepath.Glob("../../examples/dsl/*.pfl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sample DSL files found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			p, err := Parse(f)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if p.Name == "" || p.NumNodes() == 0 {
				t.Errorf("degenerate program: %q, %d nodes", p.Name, p.NumNodes())
			}
		})
	}
}
