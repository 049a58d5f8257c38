package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, b.Len())
		}
		if b.Any() {
			t.Errorf("New(%d) not empty", n)
		}
		if b.Count() != 0 {
			t.Errorf("New(%d).Count() = %d", n, b.Count())
		}
		if got := wordsFor(n); b.Words() != got {
			t.Errorf("New(%d).Words() = %d, want %d", n, b.Words(), got)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		if b.Test(i) {
			t.Errorf("bit %d set in empty set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if b.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", b.Count(), len(idx))
	}
	for _, i := range idx {
		b.Clear(i)
		if b.Test(i) {
			t.Errorf("bit %d set after Clear", i)
		}
	}
	if b.Any() {
		t.Error("set not empty after clearing all")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(b *Bitset)
	}{
		{"Set-neg", func(b *Bitset) { b.Set(-1) }},
		{"Set-high", func(b *Bitset) { b.Set(64) }},
		{"Test-high", func(b *Bitset) { b.Test(100) }},
		{"Clear-neg", func(b *Bitset) { b.Clear(-5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(New(64))
		})
	}
}

func TestSetAllTrimInvariant(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 129} {
		b := New(n)
		b.SetAll()
		if b.Count() != n {
			t.Errorf("n=%d: SetAll Count = %d", n, b.Count())
		}
		// The trailing word must be masked so whole-word ops stay exact.
		if max, ok := b.Max(); !ok || max != n-1 {
			t.Errorf("n=%d: Max = %d,%v", n, max, ok)
		}
	}
}

func TestNotRespectsUniverse(t *testing.T) {
	b := FromIndices(67, 1, 5, 66)
	c := New(67)
	c.Not(b)
	if c.Count() != 67-3 {
		t.Errorf("Not Count = %d, want 64", c.Count())
	}
	if c.Test(1) || c.Test(5) || c.Test(66) {
		t.Error("Not retained member bits")
	}
	if !c.Test(0) || !c.Test(65) {
		t.Error("Not missing complement bits")
	}
}

func TestBinaryOps(t *testing.T) {
	x := FromIndices(100, 1, 2, 3, 64, 65)
	y := FromIndices(100, 2, 3, 4, 65, 99)

	and := New(100)
	and.And(x, y)
	if want := FromIndices(100, 2, 3, 65); !and.Equal(want) {
		t.Errorf("And = %v", and)
	}

	or := New(100)
	or.Or(x, y)
	if want := FromIndices(100, 1, 2, 3, 4, 64, 65, 99); !or.Equal(want) {
		t.Errorf("Or = %v", or)
	}

	diff := New(100)
	diff.AndNot(x, y)
	if want := FromIndices(100, 1, 64); !diff.Equal(want) {
		t.Errorf("AndNot = %v", diff)
	}

	xor := New(100)
	xor.Xor(x, y)
	if want := FromIndices(100, 1, 4, 64, 99); !xor.Equal(want) {
		t.Errorf("Xor = %v", xor)
	}
}

func TestOpsAliasReceiver(t *testing.T) {
	x := FromIndices(80, 1, 10, 70)
	y := FromIndices(80, 10, 70, 79)
	x.And(x, y)
	if want := FromIndices(80, 10, 70); !x.Equal(want) {
		t.Errorf("aliased And = %v", x)
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched universes did not panic")
		}
	}()
	New(64).And(New(64), New(65))
}

func TestIntersectsWithAndCount(t *testing.T) {
	x := FromIndices(200, 5, 100, 150)
	y := FromIndices(200, 6, 100, 199)
	if !x.IntersectsWith(y) {
		t.Error("IntersectsWith = false, want true")
	}
	if got := x.AndCount(y); got != 1 {
		t.Errorf("AndCount = %d, want 1", got)
	}
	z := FromIndices(200, 7, 101)
	if x.IntersectsWith(z) {
		t.Error("IntersectsWith = true, want false")
	}
	if got := x.AndCount(z); got != 0 {
		t.Errorf("AndCount = %d, want 0", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	x := FromIndices(64, 1, 2)
	y := FromIndices(64, 1, 2, 3)
	if AndNotAny(x, y) {
		t.Error("x ⊄ y")
	}
	if !AndNotAny(y, x) {
		t.Error("y ⊂ x")
	}
	if AndNotAny(x, x) {
		t.Error("x ⊄ x")
	}
	if x.Equal(y) {
		t.Error("x == y")
	}
	if x.Equal(FromIndices(65, 1, 2)) {
		t.Error("equal across universes")
	}
}

func TestNextSetIteration(t *testing.T) {
	b := FromIndices(300, 0, 63, 64, 128, 299)
	var got []int
	for i, ok := b.NextSet(0); ok; i, ok = b.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{0, 63, 64, 128, 299}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if _, ok := b.NextSet(300); ok {
		t.Error("NextSet past universe returned ok")
	}
	if i, ok := b.NextSet(-7); !ok || i != 0 {
		t.Errorf("NextSet(-7) = %d,%v", i, ok)
	}
}

func TestMinMax(t *testing.T) {
	b := New(128)
	if _, ok := b.Min(); ok {
		t.Error("Min of empty returned ok")
	}
	if _, ok := b.Max(); ok {
		t.Error("Max of empty returned ok")
	}
	b.Set(17)
	b.Set(93)
	if v, ok := b.Min(); !ok || v != 17 {
		t.Errorf("Min = %d,%v", v, ok)
	}
	if v, ok := b.Max(); !ok || v != 93 {
		t.Errorf("Max = %d,%v", v, ok)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := FromIndices(64, 1, 2, 3, 4)
	n := 0
	b.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("ForEach visited %d, want 2", n)
	}
}

func TestIndicesAndString(t *testing.T) {
	b := FromIndices(70, 69, 3, 11)
	got := b.Indices()
	want := []int{3, 11, 69}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	if s := b.String(); s != "{3, 11, 69}" {
		t.Errorf("String = %q", s)
	}
	if s := New(5).String(); s != "{}" {
		t.Errorf("empty String = %q", s)
	}
}

func TestCloneAndCopyFromIndependence(t *testing.T) {
	a := FromIndices(64, 1, 2)
	c := a.Clone()
	c.Set(3)
	if a.Test(3) {
		t.Error("Clone shares storage")
	}
	d := New(64)
	d.CopyFrom(a)
	if !d.Equal(a) {
		t.Error("CopyFrom mismatch")
	}
	d.Clear(1)
	if !a.Test(1) {
		t.Error("CopyFrom shares storage")
	}
}

func TestSetWordAtTrims(t *testing.T) {
	b := New(65) // two words, second has 1 valid bit
	b.SetWordAt(1, ^uint64(0))
	if b.Count() != 1 {
		t.Errorf("Count after raw word write = %d, want 1", b.Count())
	}
}

// reference is a map-based model used to cross-check the bit operations.
type reference map[int]bool

func refFrom(b *Bitset) reference {
	r := reference{}
	b.ForEach(func(i int) bool { r[i] = true; return true })
	return r
}

// TestRandomizedAgainstReference drives random operation sequences against
// both the Bitset and a map model, checking they stay in lockstep.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	const n = 257
	b := New(n)
	ref := reference{}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			b.Set(i)
			ref[i] = true
		case 1:
			b.Clear(i)
			delete(ref, i)
		case 2:
			if b.Test(i) != ref[i] {
				t.Fatalf("step %d: Test(%d) = %v, ref %v", step, i, b.Test(i), ref[i])
			}
		case 3:
			if b.Count() != len(ref) {
				t.Fatalf("step %d: Count = %d, ref %d", step, b.Count(), len(ref))
			}
		}
	}
	if got := refFrom(b); len(got) != len(ref) {
		t.Fatalf("final mismatch: %d vs %d members", len(got), len(ref))
	}
}

// TestQuickAndCommutes property: And(x,y) == And(y,x) and AndCount agrees
// with the materialized intersection, for random 128-bit universes.
func TestQuickAndCommutes(t *testing.T) {
	f := func(xw, yw [2]uint64) bool {
		x, y := New(128), New(128)
		x.SetWordAt(0, xw[0])
		x.SetWordAt(1, xw[1])
		y.SetWordAt(0, yw[0])
		y.SetWordAt(1, yw[1])
		xy, yx := New(128), New(128)
		xy.And(x, y)
		yx.And(y, x)
		if !xy.Equal(yx) {
			return false
		}
		if xy.Count() != x.AndCount(y) {
			return false
		}
		return xy.Any() == x.IntersectsWith(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickDeMorgan property: ¬(x ∪ y) == ¬x ∩ ¬y over a 100-bit universe
// (exercises the trailing-word trim).
func TestQuickDeMorgan(t *testing.T) {
	f := func(xw, yw [2]uint64) bool {
		x, y := New(100), New(100)
		x.SetWordAt(0, xw[0])
		x.SetWordAt(1, xw[1])
		y.SetWordAt(0, yw[0])
		y.SetWordAt(1, yw[1])
		left := New(100)
		left.Or(x, y)
		left.Not(left)
		nx, ny := New(100), New(100)
		nx.Not(x)
		ny.Not(y)
		right := New(100)
		right.And(nx, ny)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSubsetAfterAnd property: x∩y ⊆ x and x∩y ⊆ y.
func TestQuickSubsetAfterAnd(t *testing.T) {
	f := func(xw, yw uint64) bool {
		x, y := New(64), New(64)
		x.SetWordAt(0, xw)
		y.SetWordAt(0, yw)
		z := New(64)
		z.And(x, y)
		return !AndNotAny(z, x) && !AndNotAny(z, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(128)
	b := p.Get()
	b.Set(5)
	p.Put(b)
	c := p.Get()
	if c.Any() {
		t.Error("pooled Bitset not cleared by Get")
	}
	p.Put(c)
	d := p.GetNoClear()
	d.And(FromIndices(128, 1), FromIndices(128, 1)) // full overwrite
	if d.Count() != 1 || !d.Test(1) {
		t.Error("GetNoClear + And produced wrong contents")
	}
	p.Put(nil) // must not panic
}

func TestPoolForeignPut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of foreign universe did not panic")
		}
	}()
	NewPool(64).Put(New(65))
}

func BenchmarkAnd12422(b *testing.B) {
	// Universe sized to the paper's 12,422-vertex microarray graphs.
	x, y := New(12422), New(12422)
	for i := 0; i < 12422; i += 7 {
		x.Set(i)
	}
	for i := 0; i < 12422; i += 11 {
		y.Set(i)
	}
	z := New(12422)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.And(x, y)
	}
}

func BenchmarkIntersectsWith12422(b *testing.B) {
	x, y := New(12422), New(12422)
	x.Set(12421)
	y.Set(12420)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if x.IntersectsWith(y) {
			b.Fatal("unexpected intersection")
		}
	}
}
