package pag

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"perflow/internal/graph"
	"perflow/internal/ir"
)

func TestPAGSaveLoadTopDown(t *testing.T) {
	p := testProgram(t)
	td := BuildTopDown(p)
	run := testRun(t, p, 4)
	td.EmbedRun(run, PMUModel{})

	var buf bytes.Buffer
	if err := td.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf, p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.View != TopDown || got.NRanks != td.NRanks {
		t.Errorf("header round trip wrong: %v %d", got.View, got.NRanks)
	}
	nv1, ne1 := td.Size()
	nv2, ne2 := got.Size()
	if nv1 != nv2 || ne1 != ne2 {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", nv1, ne1, nv2, ne2)
	}
	// Node mapping survives: VertexOf works after reload.
	kernelID := p.Function("foo").Body[0].(*ir.Compute).ID()
	v1, v2 := td.VertexOf(kernelID), got.VertexOf(kernelID)
	if v1 != v2 || v2 == graph.NoVertex {
		t.Errorf("VertexOf after reload: %d vs %d", v1, v2)
	}
	// Metrics survive.
	if got.G.Vertex(v2).Metric(MetricExclTime) != td.G.Vertex(v1).Metric(MetricExclTime) {
		t.Error("metrics lost in round trip")
	}
}

func TestPAGSaveLoadParallel(t *testing.T) {
	p := testProgram(t)
	run := testRun(t, p, 4)
	pv := BuildParallel(run)

	var buf bytes.Buffer
	if err := pv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.View != Parallel {
		t.Fatal("view lost")
	}
	// Flow index rebuilt: per-rank lookups work.
	kernelID := p.Function("foo").Body[0].(*ir.Compute).ID()
	for r := int32(0); r < 4; r++ {
		if got.FlowVertex(r, -1, kernelID) == graph.NoVertex {
			t.Errorf("flow vertex for rank %d lost", r)
		}
	}
	// Synthetic resource vertices keep NoNode mapping.
	for i := 0; i < got.G.NumVertices(); i++ {
		if got.G.Vertex(graph.VertexID(i)).Label == VertexResource && got.NodeOf(graph.VertexID(i)) != ir.NoNode {
			t.Error("resource vertex gained a node mapping")
		}
	}
}

func TestPAGSaveLoadFile(t *testing.T) {
	p := testProgram(t)
	td := BuildTopDown(p)
	path := t.TempDir() + "/x.pag"
	if err := td.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, nil) // no program attached
	if err != nil {
		t.Fatal(err)
	}
	nv, _ := got.Size()
	if nv == 0 {
		t.Error("empty PAG from file")
	}
	if _, err := LoadFile(path+"-missing", nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestPAGLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3}), nil); err == nil {
		t.Error("truncated input should error")
	}
	bad := make([]byte, 24)
	if _, err := Load(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad magic should error")
	}
}

// hostile assembles a PAG file from little-endian 32-bit words.
func hostile(words ...uint32) []byte {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// TestLoadHostileHeaders feeds files whose counts promise far more data
// than they hold. Each must fail with a *graph.FormatError, and the load
// may allocate only in proportion to the bytes actually read.
func TestLoadHostileHeaders(t *testing.T) {
	const (
		pagHdr   = pagMagic
		graphHdr = 0x50414731 // graph.ReadFrom's magic
		huge     = 0xFFFFFFFF
	)
	cases := map[string][]byte{
		"node map count":   hostile(pagHdr, pagVersion, 0, 1, 0, 1<<28),
		"node map max":     hostile(pagHdr, pagVersion, 0, 1, 0, huge),
		"string count":     hostile(pagHdr, pagVersion, 0, 1, 0, 0, graphHdr, 1, huge),
		"string length":    hostile(pagHdr, pagVersion, 0, 1, 0, 0, graphHdr, 1, 1, 1<<24),
		"vertex count":     hostile(pagHdr, pagVersion, 0, 1, 0, 0, graphHdr, 1, 0, huge),
		"edge count":       hostile(pagHdr, pagVersion, 0, 1, 0, 0, graphHdr, 1, 0, 0, huge),
		"metric count":     hostile(pagHdr, pagVersion, 0, 1, 0, 1, 0, graphHdr, 1, 1, 0, 1, 0, 0, huge),
		"vector length":    hostile(pagHdr, pagVersion, 0, 1, 0, 1, 0, graphHdr, 1, 1, 0, 1, 0, 0, 0, 1, 0, huge),
		"truncated header": hostile(pagHdr, pagVersion)[:7],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(data), nil)
			runtime.ReadMemStats(&after)
			var fe *graph.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Load = %v, want a *graph.FormatError", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("Load of %d bytes allocated %d bytes", len(data), alloc)
			}
		})
	}
}
