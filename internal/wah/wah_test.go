package wah

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func randomBitset(rng *rand.Rand, n int, density float64) *bitset.Bitset {
	b := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestRoundTripEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 62, 63, 64, 126, 127, 1000} {
		src := bitset.New(n)
		bm := Compress(src)
		if got := bm.Decompress(); !got.Equal(src) {
			t.Errorf("n=%d: empty round trip failed", n)
		}
		if bm.Any() {
			t.Errorf("n=%d: Any on empty = true", n)
		}
		if bm.Count() != 0 {
			t.Errorf("n=%d: Count on empty = %d", n, bm.Count())
		}
	}
}

func TestRoundTripFull(t *testing.T) {
	for _, n := range []int{1, 62, 63, 64, 125, 126, 127, 189, 1000} {
		src := bitset.New(n)
		src.SetAll()
		bm := Compress(src)
		if got := bm.Decompress(); !got.Equal(src) {
			t.Errorf("n=%d: full round trip failed", n)
		}
		if bm.Count() != n {
			t.Errorf("n=%d: Count = %d, want %d", n, bm.Count(), n)
		}
		if !bm.Any() {
			t.Errorf("n=%d: Any = false", n)
		}
	}
}

func TestRoundTripRandomDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, density := range []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 0.9, 0.999} {
		for _, n := range []int{63, 64, 100, 500, 4096, 12422} {
			src := randomBitset(rng, n, density)
			bm := Compress(src)
			if got := bm.Decompress(); !got.Equal(src) {
				t.Fatalf("n=%d density=%g: round trip failed", n, density)
			}
			if bm.Count() != src.Count() {
				t.Fatalf("n=%d density=%g: Count = %d, want %d",
					n, density, bm.Count(), src.Count())
			}
			if bm.Any() != src.Any() {
				t.Fatalf("n=%d density=%g: Any mismatch", n, density)
			}
		}
	}
}

func TestSparseCompressionWins(t *testing.T) {
	// A genome-scale sparse neighborhood: 12,422 vertices, ~48 neighbors
	// clustered into a few co-expressed modules (the realistic shape for
	// thresholded correlation graphs).
	src := bitset.New(12422)
	for _, base := range []int{300, 5000, 11000} {
		for i := 0; i < 16; i++ {
			src.Set(base + i)
		}
	}
	bm := Compress(src)
	if r := float64(bm.UncompressedBytes()) / float64(bm.CompressedBytes()); r < 5 {
		t.Errorf("compression ratio %.2f on clustered sparse input, want >= 5", r)
	}
	if bm.UncompressedBytes() != (12422+63)/64*8 {
		t.Errorf("UncompressedBytes = %d", bm.UncompressedBytes())
	}
}

func TestAndMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		x := randomBitset(rng, n, []float64{0.001, 0.05, 0.5, 0.95}[trial%4])
		y := randomBitset(rng, n, []float64{0.5, 0.001, 0.95, 0.05}[trial%4])
		want := bitset.New(n)
		want.And(x, y)

		got := And(Compress(x), Compress(y)).Decompress()
		if !got.Equal(want) {
			t.Fatalf("trial %d n=%d: compressed And mismatch", trial, n)
		}
		if AndAny(Compress(x), Compress(y)) != want.Any() {
			t.Fatalf("trial %d n=%d: AndAny mismatch", trial, n)
		}
	}
}

func TestAndLongFillRuns(t *testing.T) {
	// Force the fill-vs-fill fast path with megabit runs.
	n := 63 * 5000
	x, y := bitset.New(n), bitset.New(n)
	x.SetAll()
	for i := 200000; i < 200100; i++ {
		y.Set(i)
	}
	want := bitset.New(n)
	want.And(x, y)
	got := And(Compress(x), Compress(y))
	if !got.Decompress().Equal(want) {
		t.Fatal("fill-run And mismatch")
	}
	if got.CompressedBytes() > 16*8 {
		t.Errorf("result uses %d bytes; fills not coalesced", got.CompressedBytes())
	}
	if !AndAny(Compress(x), Compress(y)) {
		t.Error("AndAny = false, want true")
	}
}

func TestAndAnyFillIntersection(t *testing.T) {
	n := 63 * 100
	x, y := bitset.New(n), bitset.New(n)
	x.SetAll()
	y.SetAll()
	if !AndAny(Compress(x), Compress(y)) {
		t.Error("two all-ones maps do not intersect?")
	}
	y.ClearAll()
	if AndAny(Compress(x), Compress(y)) {
		t.Error("ones ∩ zeros reported non-empty")
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	x := Compress(bitset.New(64))
	y := Compress(bitset.New(65))
	for name, fn := range map[string]func(){
		"And":    func() { And(x, y) },
		"AndAny": func() { AndAny(x, y) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched universes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestQuickRoundTrip property: Compress then Decompress is the identity on
// arbitrary 3-word (192-bit) universes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(w [3]uint64) bool {
		src := bitset.New(190)
		for i, v := range w {
			src.SetWordAt(i, v)
		}
		return Compress(src).Decompress().Equal(src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAndHomomorphism property: Compress(x AND y) has the same
// logical contents as And(Compress(x), Compress(y)).
func TestQuickAndHomomorphism(t *testing.T) {
	f := func(xw, yw [3]uint64) bool {
		x, y := bitset.New(190), bitset.New(190)
		for i := range xw {
			x.SetWordAt(i, xw[i])
			y.SetWordAt(i, yw[i])
		}
		dense := bitset.New(190)
		dense.And(x, y)
		compressed := And(Compress(x), Compress(y))
		return compressed.Decompress().Equal(dense) &&
			compressed.Count() == dense.Count() &&
			AndAny(Compress(x), Compress(y)) == dense.Any()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressSparse12422(b *testing.B) {
	src := bitset.New(12422)
	for i := 0; i < 12422; i += 200 {
		src.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

func BenchmarkAndAnyCompressedSparse(b *testing.B) {
	x, y := bitset.New(12422), bitset.New(12422)
	for i := 0; i < 12422; i += 151 {
		x.Set(i)
	}
	for i := 1; i < 12422; i += 173 {
		y.Set(i)
	}
	cx, cy := Compress(x), Compress(y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AndAny(cx, cy)
	}
}
