package pag

import (
	"perflow/internal/graph"
	"perflow/internal/lint"
)

// AttachDiagnostics records warning-severity lint findings as the "lint"
// attribute of the matching top-down vertices, so downstream passes and
// reports surface them next to the performance data (error findings abort
// the run before a PAG exists, and info findings stay report-only).
// Several findings on one vertex join with "; ". Returns the number of
// findings attached.
func (p *PAG) AttachDiagnostics(diags []lint.Diagnostic) int {
	attached := 0
	for _, d := range diags {
		if d.Severity != lint.SevWarning {
			continue
		}
		vid := p.VertexOf(d.Node)
		if vid == graph.NoVertex {
			continue
		}
		v := p.G.Vertex(vid)
		entry := d.Code + ": " + d.Message
		if prev := v.Attr(AttrLint); prev != "" {
			entry = prev + "; " + entry
		}
		v.SetAttr(AttrLint, entry)
		attached++
	}
	return attached
}
