package bitset

import (
	"math/rand"
	"testing"
)

// The fused kernels (AndAny, AndAny3, AndNotAny, RangeAndAny)
// and the unrolled word loops (And, Count, AndCount) share two hazards:
// the 4-word block/tail split, and the tail-word invariant ("words beyond
// the last valid bit stay zero") that lets them skip masking.  These
// tests pin both against bit-at-a-time references over universe sizes
// chosen to hit every tail shape: 0, 1, 63, 64, 65, 127 bits plus sizes
// that exercise 4-word blocks with 0..3 trailing words.

// fusedSizes covers empty, sub-word, word-boundary ±1, and block
// boundary ±k tails.
var fusedSizes = []int{0, 1, 63, 64, 65, 127, 128, 129, 191, 255, 256, 257, 300}

// randFused fills a fresh n-bit set at roughly the given density.
func randFused(rng *rand.Rand, n int, density float64) *Bitset {
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func naiveAndAny(x, y *Bitset) bool {
	for i := 0; i < x.Len(); i++ {
		if x.Test(i) && y.Test(i) {
			return true
		}
	}
	return false
}

func naiveAndAny3(x, y, z *Bitset) bool {
	for i := 0; i < x.Len(); i++ {
		if x.Test(i) && y.Test(i) && z.Test(i) {
			return true
		}
	}
	return false
}

func naiveAndNotAny(x, y *Bitset) bool {
	for i := 0; i < x.Len(); i++ {
		if x.Test(i) && !y.Test(i) {
			return true
		}
	}
	return false
}

func naiveRangeAndAny(x, y *Bitset, start, end int) bool {
	if start < 0 {
		start = 0
	}
	if end > x.Len() {
		end = x.Len()
	}
	for i := start; i < end; i++ {
		if x.Test(i) && y.Test(i) {
			return true
		}
	}
	return false
}

// checkFusedTriple runs every kernel over one (x, y, z) operand triple —
// RangeAndAny also over a window drawn from rng — and cross-checks it
// against the references.
func checkFusedTriple(t *testing.T, rng *rand.Rand, x, y, z *Bitset) {
	t.Helper()
	n := x.Len()
	if got, want := AndAny(x, y), naiveAndAny(x, y); got != want {
		t.Fatalf("n=%d: AndAny = %v, naive %v", n, got, want)
	}
	if got, want := AndAny3(x, y, z), naiveAndAny3(x, y, z); got != want {
		t.Fatalf("n=%d: AndAny3 = %v, naive %v", n, got, want)
	}
	if got, want := AndNotAny(x, y), naiveAndNotAny(x, y); got != want {
		t.Fatalf("n=%d: AndNotAny = %v, naive %v", n, got, want)
	}
	// Ranged probe, including bounds that clip (negative start, end past
	// the universe) and empty windows.
	starts := []int{-3, 0, n / 3, n - 1, n}
	ends := []int{-1, 0, n / 2, n, n + 5}
	for _, s := range starts {
		for _, e := range ends {
			if got, want := RangeAndAny(x, y, s, e), naiveRangeAndAny(x, y, s, e); got != want {
				t.Fatalf("n=%d: RangeAndAny[%d,%d) = %v, naive %v", n, s, e, got, want)
			}
		}
	}
	if n > 0 {
		s := rng.Intn(n)
		e := s + rng.Intn(n-s+1)
		if got, want := RangeAndAny(x, y, s, e), naiveRangeAndAny(x, y, s, e); got != want {
			t.Fatalf("n=%d: RangeAndAny[%d,%d) = %v, naive %v", n, s, e, got, want)
		}
	}
	// The unrolled materializing loops must agree both with the fused
	// existence/count kernels and with the bit-at-a-time model.
	dst := New(n)
	dst.And(x, y)
	if got, want := dst.Any(), naiveAndAny(x, y); got != want {
		t.Fatalf("n=%d: And(x,y).Any = %v, naive %v", n, got, want)
	}
	c := 0
	for i := 0; i < n; i++ {
		if x.Test(i) && y.Test(i) {
			if !dst.Test(i) {
				t.Fatalf("n=%d: And(x,y) missing bit %d", n, i)
			}
			c++
		} else if dst.Test(i) {
			t.Fatalf("n=%d: And(x,y) spurious bit %d", n, i)
		}
	}
	if dst.Count() != c {
		t.Fatalf("n=%d: Count = %d, naive %d", n, dst.Count(), c)
	}
	if x.AndCount(y) != c {
		t.Fatalf("n=%d: AndCount = %d, naive %d", n, x.AndCount(y), c)
	}
}

// TestFusedKernelsAgainstNaive sweeps all kernels across every tail
// shape at several densities, including the all-zero and all-one
// extremes where early exits fire on the first or no block.
func TestFusedKernelsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for _, n := range fusedSizes {
		for _, density := range []float64{0, 0.02, 0.3, 0.9, 1} {
			for trial := 0; trial < 8; trial++ {
				x := randFused(rng, n, density)
				y := randFused(rng, n, density)
				z := randFused(rng, n, density)
				checkFusedTriple(t, rng, x, y, z)
			}
		}
	}
}

// TestFusedKernelsSingleWitness plants exactly one common bit at every
// position of small universes — the adversarial case for early-exit
// kernels, where a block-level OR must not mask the lone witness.
func TestFusedKernelsSingleWitness(t *testing.T) {
	for _, n := range fusedSizes {
		for i := 0; i < n; i++ {
			x, y, z := New(n), New(n), New(n)
			x.Set(i)
			y.Set(i)
			z.Set(i)
			if !AndAny(x, y) || !AndAny3(x, y, z) {
				t.Fatalf("n=%d: lone witness at bit %d missed", n, i)
			}
			if !RangeAndAny(x, y, i, i+1) || RangeAndAny(x, y, i+1, n) || RangeAndAny(x, y, 0, i) {
				t.Fatalf("n=%d: RangeAndAny windows around bit %d wrong", n, i)
			}
			z.Clear(i)
			if AndAny3(x, y, z) {
				t.Fatalf("n=%d: AndAny3 found a witness after clearing bit %d", n, i)
			}
			y.Clear(i)
			if !AndNotAny(x, y) {
				t.Fatalf("n=%d: AndNotAny missed x\\y witness at bit %d", n, i)
			}
			x.Clear(i)
			if AndNotAny(x, y) {
				t.Fatalf("n=%d: AndNotAny nonempty on empty x (bit %d)", n, i)
			}
		}
	}
}

// FuzzFusedKernels feeds arbitrary word patterns into the kernels and
// cross-checks every one against the bit-at-a-time references.  The
// universe size is derived from the input so the fuzzer also explores
// tail shapes; RangeAndAny's random window is drawn from a generator
// seeded by every input word.
func FuzzFusedKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(64))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint16(127))
	f.Add(uint64(1), uint64(1)<<63, uint64(1), uint64(1), uint64(1), uint64(1), uint16(65))
	f.Fuzz(func(t *testing.T, x0, x1, y0, y1, z0, z1 uint64, rawN uint16) {
		n := int(rawN)%300 + 1
		x, y, z := New(n), New(n), New(n)
		for i := 0; i < n && i < 128; i++ {
			w := [2]uint64{x0, x1}[i/64]
			if w>>(uint(i)%64)&1 != 0 {
				x.Set(i)
			}
			w = [2]uint64{y0, y1}[i/64]
			if w>>(uint(i)%64)&1 != 0 {
				y.Set(i)
			}
			w = [2]uint64{z0, z1}[i/64]
			if w>>(uint(i)%64)&1 != 0 {
				z.Set(i)
			}
		}
		rng := rand.New(rand.NewSource(int64(x0^x1<<1^y0<<2^y1<<3^z0<<4^z1<<5) + int64(rawN)))
		checkFusedTriple(t, rng, x, y, z)
	})
}
