package graph

import (
	"errors"
	"strings"
	"testing"
)

func TestBuilderErrorsInsteadOfPanics(t *testing.T) {
	// Each error class on a fresh builder (errors latch: once one is
	// recorded, subsequent calls re-report it).
	if err := NewBuilder(4).AddEdge(0, 4); err == nil || !strings.Contains(err.Error(), "vertex 4 out of range [0,4)") {
		t.Errorf("high vertex: err = %v", err)
	}
	if err := NewBuilder(4).AddEdge(-2, 1); err == nil || !strings.Contains(err.Error(), "vertex -2 out of range [0,4)") {
		t.Errorf("negative vertex: err = %v", err)
	}
	if err := NewBuilder(4).AddEdge(2, 2); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Errorf("self-loop: err = %v", err)
	}
	if err := NewBuilder(4).SetName(9, "x"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("SetName range: err = %v", err)
	}
	// The first error is latched: a caller that only checks Freeze still
	// cannot obtain a graph that silently dropped records, and later
	// calls re-report the first error.
	b := NewBuilder(4)
	if err := b.AddEdge(0, 4); err == nil {
		t.Fatal("bad edge accepted")
	}
	if err := b.AddEdge(0, 1); err == nil || !strings.Contains(err.Error(), "vertex 4 out of range") {
		t.Errorf("latched error not re-reported by AddEdge: %v", err)
	}
	if _, err := b.Freeze(); err == nil || !strings.Contains(err.Error(), "vertex 4 out of range") {
		t.Errorf("Freeze after bad records: err = %v", err)
	}

	// A clean builder freezes, then rejects everything.
	b = NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || !g.HasEdge(0, 1) {
		t.Errorf("frozen graph: m=%d", g.M())
	}
	if err := b.AddEdge(0, 2); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddEdge after Freeze: %v", err)
	}
	if err := b.SetName(0, "x"); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetName after Freeze: %v", err)
	}
	if _, err := b.Freeze(); !errors.Is(err, ErrFrozen) {
		t.Errorf("second Freeze: %v", err)
	}
}

func TestBuilderNegativeNAndBadRep(t *testing.T) {
	if _, err := NewBuilder(-1).Freeze(); err == nil {
		t.Error("negative n not reported")
	}
	if _, err := NewBuilder(3).WithRepresentation(Representation(42)).Freeze(); err == nil {
		t.Error("unknown representation not reported")
	}
}

func TestBuilderDeduplicatesAndTracksDensity(t *testing.T) {
	for _, rep := range allReps {
		b := NewBuilder(10).WithRepresentation(rep)
		for i := 0; i < 5; i++ {
			if err := b.AddEdge(1, 2); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(2, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddEdge(3, 4); err != nil {
			t.Fatal(err)
		}
		if b.Density() <= 0 {
			t.Errorf("%v: density not tracked", rep)
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != 2 {
			t.Errorf("%v: duplicates not collapsed: m=%d", rep, g.M())
		}
		if g.Degree(1) != 1 || g.Degree(2) != 1 {
			t.Errorf("%v: duplicate rows not deduplicated", rep)
		}
	}
}

func TestBuilderAutoPicksByDensity(t *testing.T) {
	// Small and edgeless: CSR, 4 x 101 = 404 bytes against the dense
	// 100 x 2 words x 8 = 1 600.
	g, err := NewBuilder(100).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.Representation() != CSR {
		t.Errorf("small auto: %v", g.Representation())
	}
	// Large and sparse: CSR.
	b := NewBuilder(20000)
	for v := 1; v < 20000; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	g, err = b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.Representation() != CSR {
		t.Errorf("large sparse auto: %v", g.Representation())
	}
}

func TestBuilderNamesAndEmptyRows(t *testing.T) {
	for _, rep := range allReps {
		b := NewBuilder(3).WithRepresentation(rep)
		if err := b.SetName(1, "only"); err != nil {
			t.Fatal(err)
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if g.Name(1) != "only" || g.Name(0) != "v0" {
			t.Errorf("%v: names %q %q", rep, g.Name(1), g.Name(0))
		}
		if g.M() != 0 || g.Degree(0) != 0 {
			t.Errorf("%v: edgeless graph wrong", rep)
		}
		g.Row(0).ForEach(func(u int) bool {
			t.Errorf("%v: empty row holds %d", rep, u)
			return false
		})
	}
}
