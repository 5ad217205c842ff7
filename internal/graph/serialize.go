package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Compact binary serialization. Table 1 of the paper reports the space cost
// of PerFlow as the storage size of PAGs (28 KB .. 22 MB); this encoder is
// what that measurement runs against. Strings are interned in a table so
// repeated names and metric keys cost 4 bytes per reference.

const (
	serialMagic   = 0x50414731 // "PAG1"
	serialVersion = 1
)

// WriteTo serializes g to w in the compact binary format and returns the
// number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: bufio.NewWriter(w)}
	enc := &encoder{w: cw, strings: map[string]uint32{}}

	enc.u32(serialMagic)
	enc.u32(serialVersion)

	// Collect the string table first for a single up-front block.
	var table []string
	intern := func(s string) {
		if _, ok := enc.strings[s]; !ok {
			enc.strings[s] = uint32(len(table))
			table = append(table, s)
		}
	}
	for i := range g.vertices {
		v := &g.vertices[i]
		intern(v.Name)
		for _, k := range SortedMetricKeys(v.Metrics) {
			intern(k)
		}
		for _, k := range sortedVecKeys(v.VecMetrics) {
			intern(k)
		}
		for _, k := range sortedStrKeys(v.Attrs) {
			intern(k)
			intern(v.Attrs[k])
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		for _, k := range SortedMetricKeys(e.Metrics) {
			intern(k)
		}
		for _, k := range sortedStrKeys(e.Attrs) {
			intern(k)
			intern(e.Attrs[k])
		}
	}
	enc.u32(uint32(len(table)))
	for _, s := range table {
		enc.str(s)
	}

	enc.u32(uint32(len(g.vertices)))
	for i := range g.vertices {
		v := &g.vertices[i]
		enc.u32(enc.strings[v.Name])
		enc.i32(int32(v.Label))
		enc.u32(uint32(len(v.Metrics)))
		for _, k := range SortedMetricKeys(v.Metrics) {
			enc.u32(enc.strings[k])
			enc.f64(v.Metrics[k])
		}
		enc.u32(uint32(len(v.VecMetrics)))
		for _, k := range sortedVecKeys(v.VecMetrics) {
			enc.u32(enc.strings[k])
			vec := v.VecMetrics[k]
			enc.u32(uint32(len(vec)))
			for _, x := range vec {
				enc.f64(x)
			}
		}
		enc.u32(uint32(len(v.Attrs)))
		for _, k := range sortedStrKeys(v.Attrs) {
			enc.u32(enc.strings[k])
			enc.u32(enc.strings[v.Attrs[k]])
		}
	}

	enc.u32(uint32(len(g.edges)))
	for i := range g.edges {
		e := &g.edges[i]
		enc.u32(uint32(e.Src))
		enc.u32(uint32(e.Dst))
		enc.i32(int32(e.Label))
		enc.u32(uint32(len(e.Metrics)))
		for _, k := range SortedMetricKeys(e.Metrics) {
			enc.u32(enc.strings[k])
			enc.f64(e.Metrics[k])
		}
		enc.u32(uint32(len(e.Attrs)))
		for _, k := range sortedStrKeys(e.Attrs) {
			enc.u32(enc.strings[k])
			enc.u32(enc.strings[e.Attrs[k]])
		}
	}
	if enc.err != nil {
		return cw.n, enc.err
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// FormatError reports input that is not a graph written by WriteTo: a bad
// header, a reference out of range, or data that ends before the counts
// it declares are satisfied.
type FormatError struct {
	Section string // the part being decoded, e.g. "graph string table"
	Err     error
}

func (e *FormatError) Error() string { return "malformed " + e.Section + ": " + e.Err.Error() }

// Unwrap returns the underlying cause (io.ErrUnexpectedEOF for truncation).
func (e *FormatError) Unwrap() error { return e.Err }

// maxPrealloc caps what a decoder reserves from a count it has read but
// not yet backed with data; beyond it, structures grow as bytes arrive,
// so a corrupt count cannot allocate more than the input holds.
const maxPrealloc = 1 << 12

// ReadFrom deserializes a graph previously written with WriteTo. Malformed
// input yields a *FormatError.
func ReadFrom(r io.Reader) (*Graph, error) {
	dec := &decoder{r: bufio.NewReader(r), section: "graph header"}
	magic, version := dec.u32(), dec.u32()
	switch {
	case dec.err != nil:
		return nil, dec.err
	case magic != serialMagic:
		return nil, &FormatError{"graph header", errors.New("bad magic")}
	case version != serialVersion:
		return nil, &FormatError{"graph header", fmt.Errorf("unsupported version %d", version)}
	}
	nStr := dec.u32()
	dec.section = "graph string table"
	table := make([]string, 0, min(nStr, maxPrealloc))
	for i := uint32(0); i < nStr && dec.err == nil; i++ {
		table = append(table, dec.str())
	}
	lookup := func(idx uint32) (string, error) {
		if int(idx) >= len(table) {
			return "", &FormatError{dec.section, fmt.Errorf("string index %d out of range", idx)}
		}
		return table[idx], nil
	}

	nv := dec.u32()
	dec.section = "graph vertices"
	g := New(int(min(nv, maxPrealloc)), 0)
	for i := uint32(0); i < nv && dec.err == nil; i++ {
		name, err := lookup(dec.u32())
		if err != nil {
			return nil, err
		}
		label := int(dec.i32())
		id := g.AddVertex(name, label)
		v := g.Vertex(id)
		for j, n := uint32(0), dec.u32(); j < n && dec.err == nil; j++ {
			k, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			v.SetMetric(k, dec.f64())
		}
		for j, n := uint32(0), dec.u32(); j < n && dec.err == nil; j++ {
			k, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			vl := dec.u32()
			vec := make([]float64, 0, min(vl, maxPrealloc))
			for x := uint32(0); x < vl && dec.err == nil; x++ {
				vec = append(vec, dec.f64())
			}
			v.SetVec(k, vec)
		}
		for j, n := uint32(0), dec.u32(); j < n && dec.err == nil; j++ {
			k, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			val, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			v.SetAttr(k, val)
		}
	}

	ne := dec.u32()
	dec.section = "graph edges"
	for i := uint32(0); i < ne && dec.err == nil; i++ {
		src := VertexID(dec.u32())
		dst := VertexID(dec.u32())
		label := int(dec.i32())
		if dec.err != nil {
			break
		}
		if !g.HasVertex(src) || !g.HasVertex(dst) {
			return nil, &FormatError{dec.section, fmt.Errorf("edge %d has invalid endpoints %d->%d", i, src, dst)}
		}
		id := g.AddEdge(src, dst, label)
		e := g.Edge(id)
		for j, n := uint32(0), dec.u32(); j < n && dec.err == nil; j++ {
			k, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			e.SetMetric(k, dec.f64())
		}
		for j, n := uint32(0), dec.u32(); j < n && dec.err == nil; j++ {
			k, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			val, err := lookup(dec.u32())
			if err != nil {
				return nil, err
			}
			e.SetAttr(k, val)
		}
	}
	if dec.err != nil {
		return nil, dec.err
	}
	return g, nil
}

// SerializedSize returns the number of bytes WriteTo would produce. The
// encoding's size depends on how many fields it has and how long the
// distinct strings are, never on their order, so it is computed in O(V+E)
// without sorting keys or encoding anything.
func (g *Graph) SerializedSize() int64 {
	seen := map[string]struct{}{}
	var strs int64 // string table entries: 4-byte length plus the bytes
	intern := func(s string) {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			strs += 4 + int64(len(s))
		}
	}
	// Header: magic, version, string count, vertex count, edge count.
	n := int64(5 * 4)
	for i := range g.vertices {
		v := &g.vertices[i]
		intern(v.Name)
		n += 5 * 4 // name, label and three field counts
		for k := range v.Metrics {
			intern(k)
			n += 4 + 8
		}
		for k, vec := range v.VecMetrics {
			intern(k)
			n += 4 + 4 + 8*int64(len(vec))
		}
		for k, val := range v.Attrs {
			intern(k)
			intern(val)
			n += 4 + 4
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		n += 5 * 4 // source, destination, label and two field counts
		for k := range e.Metrics {
			intern(k)
			n += 4 + 8
		}
		for k, val := range e.Attrs {
			intern(k)
			intern(val)
			n += 4 + 4
		}
	}
	return n + strs
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type encoder struct {
	w       io.Writer
	strings map[string]uint32
	err     error
	buf     [8]byte
}

func (e *encoder) u32(x uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], x)
	_, e.err = e.w.Write(e.buf[:4])
}

func (e *encoder) i32(x int32) { e.u32(uint32(x)) }

func (e *encoder) f64(x float64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(x))
	_, e.err = e.w.Write(e.buf[:8])
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

type decoder struct {
	r       io.Reader
	section string // reported in errors
	err     error  // the first *FormatError; later reads are no-ops
	buf     [8]byte
}

// read fills p, recording truncation as a *FormatError.
func (d *decoder) read(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = &FormatError{d.section, err}
		return false
	}
	return true
}

func (d *decoder) u32() uint32 {
	if !d.read(d.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) f64() float64 {
	if !d.read(d.buf[:8]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

// str reads a length-prefixed string, reserving at most maxPrealloc bytes
// ahead of the data.
func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > 1<<24 {
		d.err = &FormatError{d.section, fmt.Errorf("string length %d too large", n)}
		return ""
	}
	var b []byte
	for len(b) < int(n) && d.err == nil {
		chunk := min(int(n)-len(b), maxPrealloc)
		b = append(b, make([]byte, chunk)...)
		d.read(b[len(b)-chunk:])
	}
	if d.err != nil {
		return ""
	}
	return string(b)
}

func sortedStrKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedVecKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DOT renders g in Graphviz DOT syntax. The optional highlight sets mark
// vertices (drawn with a box) and edges (drawn bold red), matching how the
// paper's figures mark imbalance-analysis outputs and backtracking paths.
func (g *Graph) DOT(name string, hiV map[VertexID]bool, hiE map[EdgeID]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=ellipse];\n", name)
	for i := range g.vertices {
		v := &g.vertices[i]
		attrs := fmt.Sprintf("label=%q", v.Name)
		if hiV != nil && hiV[v.ID] {
			attrs += ", shape=box, penwidth=2"
		}
		if t := v.Metric("time"); t > 0 {
			attrs += fmt.Sprintf(", tooltip=\"time=%.3g\"", t)
		}
		fmt.Fprintf(&b, "  v%d [%s];\n", v.ID, attrs)
	}
	for i := range g.edges {
		e := &g.edges[i]
		attrs := ""
		if hiE != nil && hiE[e.ID] {
			attrs = " [color=red, penwidth=2.5]"
		}
		fmt.Fprintf(&b, "  v%d -> v%d%s;\n", e.Src, e.Dst, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// WriteGraphML exports g in GraphML — the interchange format igraph (the
// paper's PAG store) reads natively, so PAGs built here can be inspected
// with the original ecosystem's tooling. Scalar metrics become float keys,
// string attributes string keys.
func (g *Graph) WriteGraphML(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, `<?xml version="1.0" encoding="UTF-8"?>`)
	fmt.Fprintln(bw, `<graphml xmlns="http://graphml.graphdrawing.org/xmlns">`)

	// Collect attribute keys.
	vMetrics, vAttrs := map[string]bool{}, map[string]bool{}
	eMetrics := map[string]bool{}
	for i := range g.vertices {
		for k := range g.vertices[i].Metrics {
			vMetrics[k] = true
		}
		for k := range g.vertices[i].Attrs {
			vAttrs[k] = true
		}
	}
	for i := range g.edges {
		for k := range g.edges[i].Metrics {
			eMetrics[k] = true
		}
	}
	fmt.Fprintln(bw, `  <key id="v_name" for="node" attr.name="name" attr.type="string"/>`)
	fmt.Fprintln(bw, `  <key id="v_label" for="node" attr.name="label" attr.type="int"/>`)
	for _, k := range sortedBoolKeys(vMetrics) {
		fmt.Fprintf(bw, "  <key id=\"vm_%s\" for=\"node\" attr.name=%q attr.type=\"double\"/>\n", k, k)
	}
	for _, k := range sortedBoolKeys(vAttrs) {
		fmt.Fprintf(bw, "  <key id=\"va_%s\" for=\"node\" attr.name=%q attr.type=\"string\"/>\n", k, k)
	}
	fmt.Fprintln(bw, `  <key id="e_label" for="edge" attr.name="label" attr.type="int"/>`)
	for _, k := range sortedBoolKeys(eMetrics) {
		fmt.Fprintf(bw, "  <key id=\"em_%s\" for=\"edge\" attr.name=%q attr.type=\"double\"/>\n", k, k)
	}

	fmt.Fprintf(bw, "  <graph id=%q edgedefault=\"directed\">\n", name)
	for i := range g.vertices {
		v := &g.vertices[i]
		fmt.Fprintf(bw, "    <node id=\"n%d\">\n", v.ID)
		fmt.Fprintf(bw, "      <data key=\"v_name\">%s</data>\n", xmlEscape(v.Name))
		fmt.Fprintf(bw, "      <data key=\"v_label\">%d</data>\n", v.Label)
		for _, k := range SortedMetricKeys(v.Metrics) {
			fmt.Fprintf(bw, "      <data key=\"vm_%s\">%g</data>\n", k, v.Metrics[k])
		}
		for _, k := range sortedStrKeys(v.Attrs) {
			fmt.Fprintf(bw, "      <data key=\"va_%s\">%s</data>\n", k, xmlEscape(v.Attrs[k]))
		}
		fmt.Fprintln(bw, "    </node>")
	}
	for i := range g.edges {
		e := &g.edges[i]
		fmt.Fprintf(bw, "    <edge source=\"n%d\" target=\"n%d\">\n", e.Src, e.Dst)
		fmt.Fprintf(bw, "      <data key=\"e_label\">%d</data>\n", e.Label)
		for _, k := range SortedMetricKeys(e.Metrics) {
			fmt.Fprintf(bw, "      <data key=\"em_%s\">%g</data>\n", k, e.Metrics[k])
		}
		fmt.Fprintln(bw, "    </edge>")
	}
	fmt.Fprintln(bw, "  </graph>")
	fmt.Fprintln(bw, "</graphml>")
	return bw.Flush()
}

func sortedBoolKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
