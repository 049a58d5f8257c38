// Package a is frozengraph analyzer testdata: a local graph stub
// matched nominally by its method name (Row).
package a

type G struct{}

func (g *G) Row(v int) *Row { return nil }

type Row struct{ bits []uint64 }

func badRetainAcrossIterations(g *G, n int) {
	var last *Row
	for v := 0; v < n; v++ {
		last = g.Row(v) // want `outlives the loop iteration`
	}
	_ = last
}

func okRebindEachIteration(g *G, n int) {
	for v := 0; v < n; v++ {
		r := g.Row(v)
		_ = r
	}
}

func badAppendRow(g *G, n int) []*Row {
	var rows []*Row
	for v := 0; v < n; v++ {
		rows = append(rows, g.Row(v)) // want `appended to a slice`
	}
	return rows
}

type holder struct{ r *Row }

func badStoreField(g *G, h *holder, n int) {
	for v := 0; v < n; v++ {
		h.r = g.Row(v) // want `outlives the loop iteration`
	}
}

type pair struct{ a *Row }

func badCompositeCapture(g *G, n int) {
	var p pair
	for v := 0; v < n; v++ {
		p = pair{a: g.Row(v)} // want `captured in a composite literal`
	}
	_ = p
}

func okRowOutsideLoop(g *G) *Row {
	r := g.Row(0) // no loop: callers own the copy decision
	return r
}
