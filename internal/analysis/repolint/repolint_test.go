package repolint

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/lintkit"
)

// TestSuiteIsRegistered pins the analyzer roster: adding an analyzer to
// the tree without registering it here would silently exempt the repo
// from its check.
func TestSuiteIsRegistered(t *testing.T) {
	want := []string{"budgetpair", "cleanuperr", "ctxloop", "frozengraph", "goroleak",
		"hotalloc", "sendctx"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() has %d entries, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestRepoIsClean is the smoke test the CI lint gate mirrors: the full
// module — tests included — must produce zero diagnostics under the
// suite.  A regression anywhere in the tree fails this test with the
// offending positions listed.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Skip("module root not found: ", err)
	}
	pkgs, fset, err := lintkit.Load(root, []string{"./..."}, true)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	ds, err := lintkit.Run(fset, pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range ds {
		pos := fset.Position(d.Pos)
		t.Errorf("%s: %s: %s", pos, d.Analyzer, d.Message)
	}
}

// TestLoadKeepsExternallyTestedPackages: a package whose tests all live
// in its external _test package has no test-augmented variant to be
// analyzed through, so the loader must keep the plain package (it used to
// drop it, and internal/service went unanalyzed by the standalone driver).
func TestLoadKeepsExternallyTestedPackages(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Skip("module root not found: ", err)
	}
	pkgs, _, err := lintkit.Load(root, []string{"./internal/service"}, true)
	if err != nil {
		t.Fatalf("loading internal/service: %v", err)
	}
	loaded := make(map[string]bool)
	for _, p := range pkgs {
		loaded[p.Types.Path()] = true
	}
	for _, want := range []string{"repro/internal/service", "repro/internal/service_test"} {
		if !loaded[want] {
			t.Errorf("%s was not loaded (got %v)", want, loaded)
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
