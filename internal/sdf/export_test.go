package sdf

// WorkOf exposes the work New spent on m, for the headroom check.
func WorkOf(m *Model) int { return m.work }
