package graph

import (
	"fmt"
	"sort"
)

// Builder is the streaming, append-only construction path of the
// representation layer: edges and names are ingested one at a time
// (duplicates tolerated — the stream is deduplicated at Freeze), density
// is tracked as the stream arrives, and Freeze picks the adjacency
// backend — dense bitmap or CSR, whichever takes fewer bytes for the
// measured edge count — unless one (WAH-compressed included) was pinned
// with WithRepresentation.
//
// Builder replaces mutate-in-place construction for untrusted and
// streaming inputs: where *Graph panics on a bad index, Builder returns
// errors, and the Interface it freezes into is immutable by API — the
// guarantee the algorithm packages previously only assumed.
//
// A Builder is single-use: after Freeze every method returns ErrFrozen.
// It is not safe for concurrent use.
type Builder struct {
	n      int
	adj    [][]uint32 // per-vertex neighbor stream, unsorted, may repeat
	names  []string
	rep    Representation
	adds   int64 // edge insertions seen (before dedup)
	frozen bool
	err    error // first construction error, returned again by Freeze
}

// ErrFrozen is returned by Builder methods called after Freeze.
var ErrFrozen = fmt.Errorf("graph: builder is frozen")

// NewBuilder returns a streaming builder over n vertices with automatic
// representation selection.  A negative n is reported by Freeze.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, rep: Auto}
	if n < 0 {
		b.err = fmt.Errorf("graph: negative vertex count %d", n)
		return b
	}
	b.adj = make([][]uint32, n)
	return b
}

// WithRepresentation pins the representation Freeze will produce
// (default Auto: the smaller of Dense and CSR).  Returns
// the builder for chaining.
func (b *Builder) WithRepresentation(rep Representation) *Builder {
	if b.err == nil && !rep.Valid() {
		b.err = fmt.Errorf("graph: unknown representation %d", int(rep))
	}
	b.rep = rep
	return b
}

// checkVertex records and returns a clear out-of-range error.
func (b *Builder) checkVertex(v int) error {
	if v < 0 || v >= b.n {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, b.n)
	}
	return nil
}

// fail latches the first construction error so Freeze re-reports it:
// a caller that checks only Freeze (legitimate for streaming loops)
// still cannot obtain a graph that silently dropped records.
func (b *Builder) fail(err error) error {
	if b.err == nil {
		b.err = err
	}
	return err
}

// AddEdge ingests the undirected edge (u,v).  Out-of-range vertices and
// self-loops are errors, not panics; any such error also fails the
// eventual Freeze, so unchecked bad records cannot yield a silently
// incomplete graph.  Duplicate insertions are tolerated and collapse at
// Freeze.
func (b *Builder) AddEdge(u, v int) error {
	if b.frozen {
		return ErrFrozen
	}
	if b.err != nil {
		return b.err
	}
	if err := b.checkVertex(u); err != nil {
		return b.fail(err)
	}
	if err := b.checkVertex(v); err != nil {
		return b.fail(err)
	}
	if u == v {
		return b.fail(fmt.Errorf("graph: self-loop at %d", u))
	}
	b.adj[u] = append(b.adj[u], uint32(v))
	b.adj[v] = append(b.adj[v], uint32(u))
	b.adds++
	return nil
}

// SetName attaches a label (e.g. a probe-set ID) to vertex v.  An
// out-of-range vertex is an error and also fails the eventual Freeze.
func (b *Builder) SetName(v int, name string) error {
	if b.frozen {
		return ErrFrozen
	}
	if b.err != nil {
		return b.err
	}
	if err := b.checkVertex(v); err != nil {
		return b.fail(err)
	}
	if b.names == nil {
		b.names = make([]string, b.n)
	}
	b.names[v] = name
	return nil
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// Density returns the running density estimate adds / (n choose 2) —
// an upper bound on the frozen graph's density, exact when the stream
// repeats no edge.  It is a streaming observability hook; the Auto rule
// itself consults the exact deduplicated edge count Freeze measures.
func (b *Builder) Density() float64 {
	if b.n < 2 {
		return 0
	}
	return float64(b.adds) / (float64(b.n) * float64(b.n-1) / 2)
}

// Freeze deduplicates the ingested edge stream, selects the
// representation (Auto: the smaller adjacency for the measured,
// deduplicated edge count), and returns the immutable graph.  The builder's storage
// is consumed; subsequent builder calls return ErrFrozen.
func (b *Builder) Freeze() (Interface, error) {
	if b.frozen {
		return nil, ErrFrozen
	}
	if b.err != nil {
		return nil, b.err
	}
	b.frozen = true

	// Sort + dedup each row in place; count the surviving directed
	// entries for the exact m the Auto rule and the backends need.
	total := 0
	for v, row := range b.adj {
		if len(row) > 1 {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			w := 1
			for i := 1; i < len(row); i++ {
				if row[i] != row[i-1] {
					row[w] = row[i]
					w++
				}
			}
			row = row[:w]
			b.adj[v] = row
		}
		total += len(b.adj[v])
	}
	m := total / 2

	rep := b.rep
	if rep == Auto {
		rep = chooseAuto(b.n, m)
	}
	switch rep {
	case Dense:
		g := New(b.n)
		g.names = b.names
		for v, row := range b.adj {
			for _, u := range row {
				g.adj[v].Set(int(u))
			}
			b.adj[v] = nil
		}
		g.m = m
		return g, nil
	case CSR:
		return newCSR(b.n, b.adj, b.names)
	case Compressed:
		return newCompressed(b.n, b.adj, b.names), nil
	}
	return nil, fmt.Errorf("graph: unknown representation %d", int(rep))
}
