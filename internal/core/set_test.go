package core

import (
	"testing"
	"testing/quick"

	"perflow/internal/graph"
	"perflow/internal/pag"
)

// fakeEnv builds a bare PAG environment with the given named vertices.
func fakeEnv(names ...string) *pag.PAG {
	g := graph.New(len(names), 0)
	for _, n := range names {
		g.AddVertex(n, pag.VertexCompute)
	}
	p := &pag.PAG{G: g, NRanks: 4}
	return p
}

func TestAllVerticesAndClone(t *testing.T) {
	env := fakeEnv("a", "b", "c")
	s := AllVertices(env)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	c := s.Clone()
	c.V[0] = 2
	if s.V[0] != 0 {
		t.Error("Clone shares storage")
	}
}

func TestFilterNameGlob(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Recv", "compute", "MPI_Allreduce", "istream::read")
	s := AllVertices(env)
	mpi := s.FilterName("MPI_*")
	if mpi.Len() != 3 {
		t.Errorf("MPI_* matched %d, want 3: %v", mpi.Len(), mpi.Names())
	}
	exact := s.FilterName("compute")
	if exact.Len() != 1 {
		t.Errorf("exact match failed")
	}
	iread := s.FilterName("istream::*")
	if iread.Len() != 1 {
		t.Errorf("prefix match failed")
	}
	mid := s.FilterName("*Send")
	if mid.Len() != 1 {
		t.Errorf("suffix glob matched %d", mid.Len())
	}
	all := s.FilterName("*")
	if all.Len() != 5 {
		t.Errorf("star matched %d", all.Len())
	}
}

func TestGlobMatchCases(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"MPI_*", "MPI_Send", true},
		{"MPI_*", "XMPI_Send", false},
		{"*_Send", "MPI_Send", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "aXXbYY", false},
		{"", "", true},
		{"", "x", false},
		{"**", "anything", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.name); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v", c.pat, c.name, got)
		}
	}
}

func TestSortByAndTop(t *testing.T) {
	env := fakeEnv("a", "b", "c")
	env.G.Vertex(0).SetMetric("time", 5)
	env.G.Vertex(1).SetMetric("time", 50)
	env.G.Vertex(2).SetMetric("time", 20)
	s := AllVertices(env).SortBy("time")
	names := s.Names()
	if names[0] != "b" || names[1] != "c" || names[2] != "a" {
		t.Errorf("sorted = %v", names)
	}
	top := s.Top(2)
	if top.Len() != 2 || top.Names()[0] != "b" {
		t.Errorf("top = %v", top.Names())
	}
	if s.Top(99).Len() != 3 {
		t.Error("Top beyond size should keep all")
	}
	if s.Top(-1).Len() != 0 || Hotspot(s, "time", -5).Len() != 0 {
		t.Error("a negative count should keep nothing")
	}
}

func TestSortByAbs(t *testing.T) {
	env := fakeEnv("a", "b")
	env.G.Vertex(0).SetMetric("d", -100)
	env.G.Vertex(1).SetMetric("d", 5)
	s := AllVertices(env).SortByAbs("d")
	if s.Names()[0] != "a" {
		t.Errorf("abs sort = %v", s.Names())
	}
}

func TestSetAlgebra(t *testing.T) {
	env := fakeEnv("a", "b", "c", "d")
	s1 := AllVertices(env).Filter(func(v *graph.Vertex) bool { return v.ID < 3 }) // a b c
	s2 := AllVertices(env).Filter(func(v *graph.Vertex) bool { return v.ID > 1 }) // c d

	u, err := s1.Union(s2)
	if err != nil || u.Len() != 4 {
		t.Errorf("union = %v (%v)", u.Names(), err)
	}
	i, err := s1.Intersect(s2)
	if err != nil || i.Len() != 1 || i.Names()[0] != "c" {
		t.Errorf("intersect = %v (%v)", i.Names(), err)
	}
	d, err := s1.Difference(s2)
	if err != nil || d.Len() != 2 {
		t.Errorf("difference = %v (%v)", d.Names(), err)
	}
	comp := s1.Complement()
	if comp.Len() != 1 || comp.Names()[0] != "d" {
		t.Errorf("complement = %v", comp.Names())
	}
}

func TestSetAlgebraCrossEnvironmentError(t *testing.T) {
	a := AllVertices(fakeEnv("x"))
	b := AllVertices(fakeEnv("x"))
	if _, err := a.Union(b); err == nil {
		t.Error("union across PAGs should fail")
	}
	if _, err := a.Intersect(b); err == nil {
		t.Error("intersect across PAGs should fail")
	}
	if _, err := a.Difference(b); err == nil {
		t.Error("difference across PAGs should fail")
	}
}

func TestClassify(t *testing.T) {
	env := fakeEnv("MPI_Send", "MPI_Send", "compute")
	groups := AllVertices(env).Classify(func(v *graph.Vertex) string { return v.Name })
	if len(groups) != 2 || groups["MPI_Send"].Len() != 2 {
		t.Errorf("classify = %v", groups)
	}
}

// Property: set-operation outputs are subsets of inputs (the paper's
// O ⊆ I requirement for set-operation passes), and algebra laws hold.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(maskA, maskB uint16) bool {
		env := fakeEnv("v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
		pick := func(mask uint16) *Set {
			s := NewSet(env)
			for i := 0; i < 8; i++ {
				if mask&(1<<i) != 0 {
					s.V = append(s.V, graph.VertexID(i))
				}
			}
			return s
		}
		a, b := pick(maskA), pick(maskB)
		u, err1 := a.Union(b)
		i, err2 := a.Intersect(b)
		d, err3 := a.Difference(b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		// |A ∪ B| = |A| + |B| - |A ∩ B|
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		// A \ B and A ∩ B partition A.
		if d.Len()+i.Len() != a.Len() {
			return false
		}
		// Subset checks.
		for _, v := range i.V {
			if !a.Contains(v) || !b.Contains(v) {
				return false
			}
		}
		for _, v := range d.V {
			if !a.Contains(v) || b.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SortBy output is a permutation in non-increasing metric order
// and Top(n) ⊆ input.
func TestSortTopProperty(t *testing.T) {
	f := func(vals []float64, nRaw uint8) bool {
		if len(vals) > 12 {
			vals = vals[:12]
		}
		names := make([]string, len(vals))
		for i := range names {
			names[i] = "v"
		}
		env := fakeEnv(names...)
		for i, x := range vals {
			if x != x { // NaN breaks ordering; skip
				return true
			}
			env.G.Vertex(graph.VertexID(i)).SetMetric("m", x)
		}
		s := AllVertices(env).SortBy("m")
		for i := 1; i < s.Len(); i++ {
			if s.Vertex(i-1).Metric("m") < s.Vertex(i).Metric("m") {
				return false
			}
		}
		n := int(nRaw) % (len(vals) + 1)
		top := s.Top(n)
		if top.Len() != minInt(n, s.Len()) {
			return false
		}
		for _, v := range top.V {
			if !s.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
