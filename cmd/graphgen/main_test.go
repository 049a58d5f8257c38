package main

import (
	"testing"

	"repro/internal/graph"
)

func TestGenerateSpec(t *testing.T) {
	g, _, err := generate("C", 0.3, 0, 0, false, 0, 0, "", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 868 { // 2895 * 0.3
		t.Errorf("n = %d", g.N())
	}
	if _, _, err := generate("Z", 1, 0, 0, false, 0, 0, "", 0, 1); err == nil {
		t.Error("unknown spec accepted")
	}
	// Lowercase accepted.
	if _, _, err := generate("a", 0.2, 0, 0, false, 0, 0, "", 0, 1); err != nil {
		t.Errorf("lowercase spec: %v", err)
	}
}

func TestGenerateGNM(t *testing.T) {
	g, _, err := generate("", 1, 40, 80, false, 0, 0, "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 40 || g.M() != 80 {
		t.Errorf("G(n,m): %d %d", g.N(), g.M())
	}
}

func TestGenerateMicroarray(t *testing.T) {
	g, mat, err := generate("", 1, 0, 0, true, 60, 40, "8,5", 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 {
		t.Errorf("n = %d", g.N())
	}
	if mat == nil || mat.Genes != 60 {
		t.Error("expression matrix not returned")
	}
	// The planted 8-module must survive thresholding as a clique.
	module := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !graph.IsClique(g, module) {
		t.Error("planted module lost by the pipeline")
	}
	// Error cases.
	if _, _, err := generate("", 1, 0, 0, true, 5, 40, "8,5", 0.7, 3); err == nil {
		t.Error("module overflow accepted")
	}
	if _, _, err := generate("", 1, 0, 0, true, 60, 40, "x", 0.7, 3); err == nil {
		t.Error("bad module size accepted")
	}
	if _, _, err := generate("", 1, 0, 0, true, 60, 40, "1", 0.7, 3); err == nil {
		t.Error("module size 1 accepted")
	}
}

func TestGenerateNoMode(t *testing.T) {
	if _, _, err := generate("", 1, 0, 0, false, 0, 0, "", 0, 1); err == nil {
		t.Error("no generation mode accepted")
	}
}
