package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro"
	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/expt"
	"repro/internal/graph"
)

// Inputs.  Every graph is generated from the seed in set-up; the programs
// under test receive only the generated graphs and files.
//
//	C75   the paper's Table-1 graph C (myogenic) scaled to 0.75: the graph
//	      four workloads share, so that cross-regime ratios mean something
//	S20K  G(n=20000, m=320000): genome-scale sparse shape, freezes to CSR
//	C60   graph C scaled to 0.60, one variant per client session
const (
	c75Scale = 0.75
	c60Scale = 0.60
	s20kN    = 20000
	s20kM    = 320000
)

func buildC(scale float64, seed int64) *graph.Graph {
	return expt.Build(expt.SpecC.Scale(scale), seed)
}

func buildSparse(n, m int, seed int64) *graph.Graph {
	return graph.RandomGNM(rand.New(rand.NewSource(seed)), n, m)
}

// writeEdgeList writes g where the programs under test will read it.
func writeEdgeList(path string, g graph.Interface) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return graph.WriteEdgeList(f, g)
}

// digester hashes a clique stream in its canonical form: one line per
// clique, vertex ids in decimal separated by one space.  It is the
// reporter of the in-process runs, and the text surfaces (cliquer's
// stdout, cliqued's bodies) are reduced to the same lines before hashing,
// so one reference digest checks every surface.
type digester struct {
	h       hash.Hash
	buf     []byte
	count   int64
	maxSize int
	first   time.Time // when the first clique arrived
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) reset() {
	d.h.Reset()
	d.count, d.maxSize, d.first = 0, 0, time.Time{}
}

func (d *digester) Emit(c clique.Clique) {
	d.buf = d.buf[:0]
	for i, v := range c {
		if i > 0 {
			d.buf = append(d.buf, ' ')
		}
		d.buf = strconv.AppendInt(d.buf, int64(v), 10)
	}
	d.buf = append(d.buf, '\n')
	d.line(d.buf, len(c))
}

// line adds one canonical line (newline included) of a size-k clique.
func (d *digester) line(canonical []byte, k int) {
	if d.count == 0 {
		d.first = time.Now()
	}
	d.h.Write(canonical)
	d.count++
	if k > d.maxSize {
		d.maxSize = k
	}
}

// textLine adds a line as cliquer and cliqued's text format print it
// ("v12 v45 v99"): default vertex names are "v<id>", so dropping the v's
// gives the canonical line.
func (d *digester) textLine(line []byte) {
	d.buf = d.buf[:0]
	k := 1
	for _, b := range line {
		if b == 'v' {
			continue
		}
		if b == ' ' {
			k++
		}
		d.buf = append(d.buf, b)
	}
	d.buf = append(d.buf, '\n')
	d.line(d.buf, k)
}

// ndjsonLine adds a clique line of cliqued's NDJSON format
// ({"size":3,"vertices":[1,2,3]}); it reports false for any other line
// (the trailing summary object).
func (d *digester) ndjsonLine(line []byte) bool {
	open := bytes.IndexByte(line, '[')
	end := bytes.IndexByte(line, ']')
	if !bytes.HasPrefix(line, []byte(`{"size":`)) || open < 0 || end < open {
		return false
	}
	d.buf = d.buf[:0]
	k := 1
	for _, b := range line[open+1 : end] {
		if b == ',' {
			b = ' '
			k++
		}
		d.buf = append(d.buf, b)
	}
	d.buf = append(d.buf, '\n')
	d.line(d.buf, k)
	return true
}

func (d *digester) sum() [32]byte {
	var out [32]byte
	d.h.Sum(out[:0])
	return out
}

// streamRef is what a clique stream with lower bound lo must look like.
type streamRef struct {
	digest [32]byte
	count  int64
}

// reference is the expected outcome for one input graph, computed once in
// set-up on the sequential in-core backend and cross-checked against the
// independent Bron–Kerbosch oracle.
type reference struct {
	byLo  map[int]streamRef // canonical stream of maximal cliques of size >= lo
	omega int               // largest maximal clique
	cands int64             // candidate cliques consumed, all levels
	peak  int64             // governor peak of the sequential in-core run
}

// matches reports whether a finished digester saw exactly the reference
// stream for lower bound lo.
func (r *reference) matches(lo int, d *digester) bool {
	want, ok := r.byLo[lo]
	return ok && d.count == want.count && d.sum() == want.digest
}

// computeReference enumerates g sequentially once, hashing the stream for
// every lower bound in los, then counts the maximal cliques again with
// internal/bk and fails unless the two agree.
func computeReference(ctx context.Context, g graph.Interface, los []int) (*reference, error) {
	minLo := los[0]
	digs := make(map[int]*digester, len(los))
	for _, lo := range los {
		digs[lo] = newDigester()
		if lo < minLo {
			minLo = lo
		}
	}
	ref := &reference{byLo: make(map[int]streamRef, len(los))}
	var st repro.Stats
	rep := repro.ReporterFunc(func(c repro.Clique) {
		for lo, d := range digs {
			if len(c) >= lo {
				d.Emit(c)
			}
		}
	})
	// Candidate counts come from this sequential run: Stats.Levels[].Cliques
	// is 0 on the parallel backend today.
	if _, err := repro.NewEnumerator(repro.WithBounds(minLo, 0), repro.WithStats(&st)).Run(ctx, g, rep); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	for lo, d := range digs {
		ref.byLo[lo] = streamRef{digest: d.sum(), count: d.count}
	}
	ref.omega = st.MaxCliqueSize
	ref.peak = st.PeakBytes
	for _, ls := range st.Levels {
		ref.cands += ls.Cliques
	}

	oracle := make(map[int]int64, len(los))
	bk.Enumerate(g, bk.Improved, clique.ReporterFunc(func(c clique.Clique) {
		for _, lo := range los {
			if len(c) >= lo {
				oracle[lo]++
			}
		}
	}))
	for _, lo := range los {
		if oracle[lo] != ref.byLo[lo].count {
			return nil, fmt.Errorf("reference check: enumerator reports %d maximal cliques of size >= %d, the bk oracle %d",
				ref.byLo[lo].count, lo, oracle[lo])
		}
	}
	return ref, nil
}
