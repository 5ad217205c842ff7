package pag

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"perflow/internal/graph"
	"perflow/internal/ir"
)

// PAG persistence: the paper stores PAGs in igraph so analyses can run
// offline, decoupled from collection. Save/Load wrap the graph package's
// compact binary format with a small header carrying the view kind and
// scale, plus the vertex->IR-node mapping so projections keep working
// after a round trip (the Program itself is not persisted; reattach it via
// the load parameter when projections into a fresh top-down view are
// needed).

const (
	pagMagic   = 0x50414747 // "PAGG"
	pagVersion = 1
)

// Save writes the PAG to w.
func (p *PAG) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pagMagic)
	binary.LittleEndian.PutUint32(hdr[4:], pagVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.View))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.NRanks))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(p.NThreads))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(p.nodeOf)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for _, n := range p.nodeOf {
		binary.LittleEndian.PutUint32(buf[:], uint32(n))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	if _, err := p.G.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes the PAG to path.
func (p *PAG) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Save(f)
}

// Load reads a PAG previously written with Save. prog may be nil; when
// given, the node mapping is revalidated against it and VertexOf lookups
// work for top-down views. Malformed input yields a *graph.FormatError.
func Load(r io.Reader, prog *ir.Program) (*PAG, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, malformed("pag header", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pagMagic {
		return nil, malformed("pag header", errors.New("bad magic"))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != pagVersion {
		return nil, malformed("pag header", fmt.Errorf("unsupported version %d", v))
	}
	p := &PAG{
		Prog:     prog,
		View:     View(binary.LittleEndian.Uint32(hdr[8:])),
		NRanks:   int(binary.LittleEndian.Uint32(hdr[12:])),
		NThreads: int(binary.LittleEndian.Uint32(hdr[16:])),
	}
	// The node map grows as entries arrive: the header's count alone must
	// not reserve memory the input cannot back.
	nNodes := binary.LittleEndian.Uint32(hdr[20:])
	p.nodeOf = make([]ir.NodeID, 0, min(nNodes, 1<<12))
	var buf [4]byte
	for i := uint32(0); i < nNodes; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, malformed("pag node map", err)
		}
		p.nodeOf = append(p.nodeOf, ir.NodeID(int32(binary.LittleEndian.Uint32(buf[:]))))
	}
	g, err := graph.ReadFrom(br)
	if err != nil {
		return nil, err
	}
	p.G = g
	if len(p.nodeOf) != g.NumVertices() {
		return nil, malformed("pag node map", fmt.Errorf("%d entries for %d vertices",
			len(p.nodeOf), g.NumVertices()))
	}
	// Rebuild the reverse/flow indices from the persisted data.
	if p.View == TopDown && prog != nil {
		p.byNode = make([]graph.VertexID, prog.NumNodes())
		for i := range p.byNode {
			p.byNode[i] = graph.NoVertex
		}
		for v, n := range p.nodeOf {
			if n >= 0 && int(n) < len(p.byNode) {
				p.byNode[n] = graph.VertexID(v)
			}
		}
	}
	if p.View == Parallel {
		p.flowIdx = make(map[FlowKey]graph.VertexID, g.NumVertices())
		for i := 0; i < g.NumVertices(); i++ {
			v := g.Vertex(graph.VertexID(i))
			if v.Metrics == nil {
				continue
			}
			r, hasR := v.Metrics[MetricRank]
			t, hasT := v.Metrics[MetricThread]
			if !hasR || !hasT || p.nodeOf[i] == ir.NoNode {
				continue
			}
			p.flowIdx[FlowKey{Rank: int32(r), Thread: int32(t), Node: p.nodeOf[i]}] = graph.VertexID(i)
		}
	}
	return p, nil
}

func malformed(section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return &graph.FormatError{Section: section, Err: err}
}

// LoadFile reads a PAG from path.
func LoadFile(path string, prog *ir.Program) (*PAG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, prog)
}
