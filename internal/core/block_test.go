package core

import (
	"context"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// record is one sub-list as a test states it.
type record struct{ prefix, tails []uint32 }

func recordsOf(l *Level) []record {
	var recs []record
	for s := range l.All() {
		recs = append(recs, record{slices.Clone(s.Prefix), slices.Clone(s.Tails)})
	}
	return recs
}

func sameRecords(t *testing.T, got, want []record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].prefix, want[i].prefix) || !slices.Equal(got[i].tails, want[i].tails) {
			t.Fatalf("record %d: %v|%v, want %v|%v", i, got[i].prefix, got[i].tails, want[i].prefix, want[i].tails)
		}
	}
}

// sortedRecords draws n sub-lists of k-cliques over [0, universe) in
// canonical order: strictly increasing prefixes, sorted, distinct, each
// with 2..maxTails tails above its prefix.
func sortedRecords(rng *rand.Rand, n, k, universe, maxTails int) []record {
	// distinct draws `count` distinct values of [lo, hi), sorted.
	distinct := func(count, lo, hi int) []uint32 {
		var vs []uint32
		for len(vs) < count {
			if v := uint32(lo + rng.Intn(hi-lo)); !slices.Contains(vs, v) {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		return vs
	}
	recs := make([]record, 0, n)
	for len(recs) < n {
		p := distinct(k-1, 0, universe-maxTails)
		last := int(p[len(p)-1])
		recs = append(recs, record{p, distinct(2+rng.Intn(maxTails-1), last+1, universe)})
	}
	slices.SortFunc(recs, func(a, b record) int { return slices.Compare(a.prefix, b.prefix) })
	return slices.CompactFunc(recs, func(a, b record) bool { return slices.Equal(a.prefix, b.prefix) })
}

// seedLevel appends recs through the seeders' entry point.
func seedLevel(k int, recs []record) *Level {
	sink := newBlockSink(nil)
	for _, r := range recs {
		sink.appendRecord(r.prefix, r.tails, nil)
	}
	return &Level{K: k, Sub: sink.finish(0)}
}

// checkBlocks asserts the block invariants: no empty block, every block
// starts a run, header counts equal what the records hold, and the
// level's totals are their sums.
func checkBlocks(t *testing.T, l *Level) {
	t.Helper()
	var n int
	var m, bytes int64
	for i := range l.Sub {
		b := &l.Sub[i]
		if len(b.Words()) == 0 || b.Sublists() == 0 {
			t.Fatalf("block %d is empty", i)
		}
		var bn int
		var bm, pairs int64
		for s := range b.Records(l.K) {
			if bn == 0 && s.LCP != 0 {
				t.Fatalf("block %d starts with lcp %d", i, s.LCP)
			}
			bn++
			bm += int64(len(s.Tails))
			pairs += int64(len(s.Tails)) * int64(len(s.Tails)-1) / 2
		}
		if bn != b.Sublists() || bm != b.Cliques() || pairs != b.pairs {
			t.Fatalf("block %d header says %d sub-lists / %d cliques / %d pairs, its records hold %d / %d / %d",
				i, b.Sublists(), b.Cliques(), b.pairs, bn, bm, pairs)
		}
		n, m, bytes = n+bn, m+bm, bytes+b.Bytes()
	}
	if n != l.Sublists() || m != l.Cliques() || bytes != l.Bytes() {
		t.Fatalf("level totals %d / %d / %d bytes, blocks sum to %d / %d / %d",
			l.Sublists(), l.Cliques(), l.Bytes(), n, m, bytes)
	}
}

// TestBlockRoundTrip: random sorted record streams survive append and
// iterate exactly, across chunk boundaries (the open run moves, whole
// runs are sealed in place), at every depth from the k=2 seed shape up.
func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for _, k := range []int{2, 3, 4, 7, 12} {
		for _, n := range []int{1, 7, 300, 5000} {
			want := sortedRecords(rng, n, k, 40000, 9)
			lvl := seedLevel(k, want)
			checkBlocks(t, lvl)
			sameRecords(t, recordsOf(lvl), want)
			if n >= 5000 && len(lvl.Sub) < 2 {
				t.Errorf("k=%d: %d records fit one block; the chunk boundary is untested", k, n)
			}
			// Front coding pays: a level of many sorted sub-lists is smaller
			// than its records spelled out.
			if spelled := int64(4 * (lvl.Sublists()*k + int(lvl.Cliques()))); n >= 300 && k >= 4 && lvl.Bytes() >= spelled {
				t.Errorf("k=%d n=%d: %d bytes front-coded, %d spelled out", k, n, lvl.Bytes(), spelled)
			}
		}
	}
}

// TestBlockRegrouping: how a level's runs are grouped into blocks changes
// no word.  Recut splits at run starts only, Append coalesces neighbours
// that are one stretch of memory, and a level cut to pieces and appended
// back holds the record stream it started with.
func TestBlockRegrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(192))
	want := sortedRecords(rng, 4000, 6, 300, 6)
	lvl := seedLevel(6, want)
	words := levelWords(lvl)
	homes := make([]int32, len(lvl.Sub))
	for i := range homes {
		homes[i] = int32(i)
	}
	for _, maxWords := range []int{1, 64, 700, 1 << 20} {
		cut, cutHomes := lvl.Recut(maxWords, homes)
		checkBlocks(t, cut)
		if !slices.Equal(levelWords(cut), words) {
			t.Fatalf("Recut(%d) changed the record stream", maxWords)
		}
		sameRecords(t, recordsOf(cut), want)
		if len(cutHomes) != len(cut.Sub) || !slices.IsSorted(cutHomes) {
			t.Fatalf("Recut(%d): %d homes for %d blocks, or pieces out of their block's order", maxWords, len(cutHomes), len(cut.Sub))
		}
		if maxWords == 1 && len(cut.Sub) <= len(lvl.Sub) {
			t.Errorf("Recut(1) left %d blocks of %d", len(cut.Sub), len(lvl.Sub))
		}
	}

	// The sink's blocks of one chunk lie back to back.  Sealed every 50
	// records, the way a pool worker seals per input block, they coalesce
	// up to the bound and no further, never across chunks, and without
	// moving a word.
	sink := newBlockSink(nil)
	var frags []Block
	mark := 0
	for i, r := range want {
		sink.appendRecord(r.prefix, r.tails, nil)
		if i%50 == 49 || i == len(want)-1 {
			frags = append(frags, sink.finish(mark)...)
			mark = len(sink.out)
		}
	}
	apart := &Level{K: 6}
	if grown := apart.Append(0, frags...); grown != len(frags) || len(apart.Sub) != len(frags) {
		t.Fatalf("Append(0) kept %d of %d blocks apart", grown, len(frags))
	}
	checkBlocks(t, apart)
	sameRecords(t, recordsOf(apart), want)
	for _, maxWords := range []int{600, 1 << 30} {
		joined := &Level{K: 6}
		joined.Append(maxWords, frags...)
		checkBlocks(t, joined)
		if !slices.Equal(levelWords(joined), levelWords(apart)) {
			t.Fatalf("Append(%d) changed the record stream", maxWords)
		}
		if len(joined.Sub) >= len(frags) {
			t.Errorf("Append(%d) coalesced nothing: %d blocks of %d", maxWords, len(joined.Sub), len(frags))
		}
		for i := range joined.Sub {
			if n := len(joined.Sub[i].Words()); n > max(maxWords, maxChunkWords) {
				t.Errorf("Append(%d): block %d holds %d words", maxWords, i, n)
			}
		}
	}
	if len(frags) != len(apart.Sub) || apart.Sub[0].Sublists() != 50 {
		t.Errorf("Append coalesced into its argument: first block now holds %d sub-lists", apart.Sub[0].Sublists())
	}
}

// TestBlockHeaderOverflow: a prefix longer than the header's 8-bit lcp
// field and a tail count beyond its 16 bits take the escape words and
// decode exactly — synthetic deep records here, a CSR hub at the k=2 seed
// below.
func TestBlockHeaderOverflow(t *testing.T) {
	const depth = 300 // k-1
	p := make([]uint32, depth)
	for i := range p {
		p[i] = uint32(2 * i)
	}
	want := []record{{slices.Clone(p), []uint32{2 * depth, 2*depth + 3}}}
	// Each record shares `at` leading vertices with the one before it:
	// lengths on both sides of the escape value, and one long tail list.
	for _, at := range []int{depth - 1, 260, 255, 254, 3, 256, 299, 255} {
		for i := at; i < depth; i++ {
			p[i]++
		}
		tails := []uint32{2*depth + 5, 2*depth + 9}
		if at == 254 {
			tails = make([]uint32, tailEscape+7)
			for i := range tails {
				tails[i] = uint32(2*depth + 1 + i)
			}
		}
		want = append(want, record{slices.Clone(p), tails})
	}
	lvl := seedLevel(depth+1, want)
	checkBlocks(t, lvl)
	sameRecords(t, recordsOf(lvl), want)
	escapes := 0
	for s := range lvl.All() {
		if s.LCP >= lcpEscape {
			escapes++
		}
	}
	if escapes < 4 {
		t.Errorf("%d records took the lcp escape; the fixture is meant to have several", escapes)
	}

	// A star on 70 000 vertices, CSR: the hub's seed sub-list has 69 999
	// tails, and vertex 1 a second sub-list behind it.
	const n = 70000
	bld := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := bld.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int{2, 3} {
		if err := bld.AddEdge(1, v); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := bld.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Convert(frozen, graph.CSR)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, _ := Seed(context.Background(), g, 2, CNRecompute, 1, false, nil, nil)
	checkBlocks(t, seed)
	recs := recordsOf(seed)
	if len(recs) != 2 || len(recs[0].tails) != n-1 || !slices.Equal(recs[1].tails, []uint32{2, 3}) {
		t.Fatalf("star seed decoded to %d sub-lists (first with %d tails)", len(recs), len(recs[0].tails))
	}
	for i, v := range recs[0].tails {
		if v != uint32(i+1) {
			t.Fatalf("hub tail %d decoded as %d", i, v)
		}
	}
	if seed.Sub[0].Bytes() <= MaxBlockBytes {
		t.Errorf("the hub's block charges %d bytes; a record larger than a chunk gets a block of its own size", seed.Sub[0].Bytes())
	}
}

// TestBlockSideSlab: in the stored-bitmap mode every record of a block
// has its bitmap in the side slab, consuming a record through the kernel
// clears the slab's copy, and the block's bytes count slab and bitmaps.
func TestBlockSideSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	g := graph.PlantedGraph(rng, 90, []graph.PlantedCliqueSpec{{Size: 9}, {Size: 7, Overlap: 2}}, 200)
	for _, mode := range []CNMode{CNStore} {
		gov := membudget.New(0)
		b := NewBuilderMode(g, mode, bitset.NewPool(g.N()))
		b.Gov = gov
		gov.Charge(b.ScratchBytes()) // adopted: the scratch's growth is charged as it happens
		lvl, _, _ := Seed(context.Background(), g, 2, mode, 1, false, nil, nil)
		gov.Charge(lvl.Bytes())
		for len(lvl.Sub) > 0 {
			checkBlocks(t, lvl)
			var payload int64
			for s := range lvl.All() {
				if s.CN == nil {
					t.Fatalf("mode %v level %d: sub-list holds no bitmap", mode, lvl.K)
				}
				payload += int64(s.CN.Bytes())
			}
			if want := payload + int64(lvl.Sublists())*sideBytes + 4*int64(len(levelWords(lvl))); lvl.Bytes() != want {
				t.Fatalf("mode %v level %d: %d bytes, words + slab + bitmaps are %d", mode, lvl.K, lvl.Bytes(), want)
			}
			next, st := Step(g, lvl, nil, b)
			for s := range lvl.All() {
				if s.CN != nil {
					t.Fatalf("mode %v level %d: a consumed sub-list still holds its dense bitmap", mode, lvl.K)
				}
			}
			gov.Release(st.Bytes)
			lvl = next
		}
		gov.Release(lvl.Bytes())
		gov.Release(b.ScratchBytes())
		if gov.Used() != 0 {
			t.Errorf("mode %v: governor at %d after the run", mode, gov.Used())
		}
	}
}

// TestVerifierAcceptsEveryLevel: whatever the sink writes — sorted
// records cut into blocks anywhere a run starts, runs restarted every
// RunWords, escaped tail counts — passes the walk a spilled level is read
// back with, block after block, with the counts the sink gave its blocks;
// and a level with two blocks swapped fails it.
func TestVerifierAcceptsEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{2, 3, 6, 12} {
		recs := sortedRecords(rng, 3000, k, 4000, 40)
		recs = append(recs, record{prefix: []uint32{5000}, tails: make([]uint32, tailEscape+3)})
		if k == 2 {
			for i := range recs[len(recs)-1].tails {
				recs[len(recs)-1].tails[i] = 5001 + uint32(i)
			}
		} else {
			recs = recs[:len(recs)-1]
		}
		lvl := seedLevel(k, recs)
		if len(lvl.Sub) < 3 {
			t.Fatalf("k=%d: %d blocks; the level should span several", k, len(lvl.Sub))
		}
		var v Verifier
		v.Reset(k, 1<<20)
		for i := range lvl.Sub {
			b := &lvl.Sub[i]
			got, err := v.Block(b.words, 0)
			if err != nil {
				t.Fatalf("k=%d block %d: %v", k, i, err)
			}
			if got.blockCounts != b.blockCounts || len(got.words) != len(b.words) {
				t.Fatalf("k=%d block %d: counts %+v, the sink's %+v", k, i, got.blockCounts, b.blockCounts)
			}
		}
		v.Reset(k, 1<<20)
		if _, err := v.Block(lvl.Sub[1].words, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Block(lvl.Sub[0].words, 0); err == nil {
			t.Errorf("k=%d: a block behind the one it precedes passed", k)
		}
	}
}

// FuzzLevelBlock is the decoder's contract on arbitrary words — an error
// or well-formed views, never a panic, and whatever decodes re-encodes to
// the same records; a frame the Verifier accepts is one Iter decodes too —
// and the codec's round trip on arbitrary record streams, sorted or not,
// cut into blocks at arbitrary places.
func FuzzLevelBlock(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 0xff, 0, 0, 0})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 2 + int(data[0])%9
		data = data[1:]

		// Arbitrary words.
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		var it Iter
		var decoded []record
		it.Reset(k, &Block{words: words})
		for s := it.Next(); s != nil; s = it.Next() {
			if len(s.Prefix) != k-1 || s.LCP < 0 || s.LCP > k-1 {
				t.Fatalf("view with prefix %v, lcp %d at k=%d", s.Prefix, s.LCP, k)
			}
			decoded = append(decoded, record{slices.Clone(s.Prefix), slices.Clone(s.Tails)})
		}
		if it.Err() == nil {
			sameRecords(t, recordsOf(seedLevel(k, decoded)), decoded)
		}
		var v Verifier
		v.Reset(k, 1<<16)
		if _, err := v.Block(words, 0); err == nil && it.Err() != nil {
			t.Fatalf("the Verifier passed words Iter rejects: %v", it.Err())
		}

		// Arbitrary records: each byte pair a vertex, the stream cut into
		// sub-lists of k-1 prefix vertices and 1..4 tails, a block sealed
		// wherever a byte says so.
		sink := newBlockSink(nil)
		var want []record
		for len(data) >= 2*(k+4) {
			r := record{prefix: make([]uint32, k-1), tails: make([]uint32, 1+int(data[0])%4)}
			seal := data[1]&7 == 0
			data = data[2:]
			for i := range r.prefix {
				r.prefix[i] = uint32(binary.LittleEndian.Uint16(data[2*i:]))
			}
			data = data[2*(k-1):]
			for i := range r.tails {
				r.tails[i] = uint32(binary.LittleEndian.Uint16(data[2*i:]))
			}
			data = data[2*len(r.tails):]
			sink.appendRecord(r.prefix, r.tails, nil)
			want = append(want, r)
			if seal {
				sink.finish(0)
			}
		}
		lvl := &Level{K: k, Sub: sink.finish(0)}
		checkBlocks(t, lvl)
		sameRecords(t, recordsOf(lvl), want)
		cut, _ := lvl.Recut(1, nil)
		if !slices.Equal(levelWords(cut), levelWords(lvl)) {
			t.Fatal("Recut changed the record stream")
		}
	})
}
