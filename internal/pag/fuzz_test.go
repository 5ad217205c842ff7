package pag

import (
	"bytes"
	"testing"
)

// FuzzLoadPAG feeds arbitrary bytes to Load. Every input must yield a PAG
// or an error, never a panic, and whatever loads must survive Save then
// Load unchanged: saving the reloaded PAG reproduces the saved bytes.
// testdata/fuzz/FuzzLoadPAG holds hostile-header regressions.
func FuzzLoadPAG(f *testing.F) {
	p := testProgram(f)
	td := BuildTopDown(p)
	td.EmbedRun(testRun(f, p, 2), PMUModel{})
	pv := BuildParallel(testRun(f, p, 2))
	for _, seed := range []*PAG{td, pv} {
		var buf bytes.Buffer
		if err := seed.Save(&buf); err != nil {
			f.Fatal(err)
		}
		saved := bytes.Clone(buf.Bytes())
		loaded, err := Load(&buf, nil)
		if err != nil {
			f.Fatal(err)
		}
		buf.Reset()
		if err := loaded.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), saved) {
			f.Fatalf("a saved PAG does not round-trip byte for byte (err %v)", err)
		}
		f.Add(saved)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := p.Save(&saved); err != nil {
			t.Fatalf("Save of a loaded PAG: %v", err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()), nil)
		if err != nil {
			t.Fatalf("Load of a saved PAG: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("Save/Load round trip changed %d bytes into %d", saved.Len(), resaved.Len())
		}
	})
}
