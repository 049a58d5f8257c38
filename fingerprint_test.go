package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestFingerprintMatchesOOCManifest cross-checks the promoted
// repro.Fingerprint against the identity the out-of-core checkpoint
// manifest stores: kill a checkpointed run mid-way, read graph_hash out
// of ooc-manifest.json, and require the facade to compute the same
// value.  This is the invariant that lets the query service and the
// checkpoint layer agree on what "the same graph" means.
func TestFingerprintMatchesOOCManifest(t *testing.T) {
	g := testGraph(7, 60, 0.2)
	fp := repro.Fingerprint(g)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q: want 16 hex digits", fp)
	}
	if fp != repro.Fingerprint(g) {
		t.Fatal("fingerprint is not deterministic")
	}

	dir := t.TempDir()
	e := repro.NewEnumerator(repro.WithOutOfCore(dir, 0, repro.OOCCheckpoint()))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := e.Run(ctx, g, repro.ReporterFunc(func(repro.Clique) {
		if seen++; seen == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run error = %v, want context.Canceled", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "ooc-manifest.json"))
	if err != nil {
		t.Fatalf("no checkpoint manifest after the kill: %v", err)
	}
	var m struct {
		GraphHash string `json:"graph_hash"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.GraphHash != fp {
		t.Fatalf("manifest graph_hash %q != repro.Fingerprint %q", m.GraphHash, fp)
	}
}

// TestFingerprintDistinguishesGraphs: different graphs, different
// fingerprints (probabilistically certain for FNV at this scale, and a
// regression guard against hashing only the header).
func TestFingerprintDistinguishesGraphs(t *testing.T) {
	a := testGraph(1, 40, 0.2)
	b := testGraph(2, 40, 0.2)
	if repro.Fingerprint(a) == repro.Fingerprint(b) {
		t.Fatal("distinct graphs share a fingerprint")
	}
}

// TestReadGraphAutoDetect exercises the io.Reader ingestion path: the
// same graph serialized as an edge list and as DIMACS must auto-detect
// to equal graphs with equal fingerprints, and explicit formats must
// refuse nothing they accept under auto.
func TestReadGraphAutoDetect(t *testing.T) {
	g := testGraph(11, 40, 0.2)

	var el, dim bytes.Buffer
	if err := repro.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteDIMACS(&dim, g); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		data   string
		format repro.GraphFormat
	}{
		{"edgelist-auto", el.String(), repro.FormatAuto},
		{"edgelist-explicit", el.String(), repro.FormatEdgeList},
		{"dimacs-auto", dim.String(), repro.FormatAuto},
		{"dimacs-explicit", dim.String(), repro.FormatDIMACS},
	}
	want := repro.Fingerprint(g)
	for _, c := range cases {
		got, err := repro.ReadGraph(strings.NewReader(c.data), c.format, repro.Auto)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if repro.Fingerprint(got) != want {
			t.Fatalf("%s: fingerprint %s, want %s", c.name, repro.Fingerprint(got), want)
		}
	}

	if _, err := repro.ReadGraph(strings.NewReader(""), repro.FormatAuto, repro.Auto); err == nil {
		t.Fatal("empty input: want an error")
	}
	if _, err := repro.ParseGraphFormat("yaml"); err == nil {
		t.Fatal("ParseGraphFormat(yaml): want an error")
	}
}

// digitRun reports whether data holds a run of more than n decimal digits.
func digitRun(data []byte, n int) bool {
	run := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			run = 0
		} else if run++; run > n {
			return true
		}
	}
	return false
}

// FuzzReadGraph holds the first byte boundary of every tool — the graph
// file, which cliqued reads straight off a request body — to its contract
// for both formats and the three representations: the reader returns an
// error or a graph, never panics, the representations agree on which, and
// a graph it returns survives WriteEdgeList -> ReadGraph with its
// Fingerprint intact.  Seeded from the malformed inputs
// internal/graph/io_fail_test.go spells and the well-formed ones of
// graph_test.go.  Numbers of more than three digits are left out: both
// readers allocate per declared vertex before they have seen an edge, and
// bounding that (a budget's job, not the parser's) is not what is fuzzed.
func FuzzReadGraph(f *testing.F) {
	for _, seed := range []string{
		"", "# nothing here\n", "5\n", "5 2\n0 1\n3\n", "5 1\n0 5\n", "5 1\n-1 2\n", "5 1\n2 2\n",
		"5 1\nx y\n", "-3 0\n", "4 3\n0 1\n1 0\n0 1\n2 3\n", "3 2\n# a triangle short of an edge\n0 1\n\n1 2\n",
		"c nothing\n", "e 1 2\n", "p graph 5 2\n", "p edge 5 2\ne 1\n", "p edge 5 1\ne 1 6\n", "p edge 5 1\ne 0 2\n",
		"p edge 5 1\ne 2 2\n", "p edge 5 1\nq 1 2\n", "p edge 4 3\ne 1 2\ne 2 1\ne 3 4\n", "c k4\np edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n",
	} {
		f.Add([]byte(seed))
	}
	reps := []repro.Representation{repro.Dense, repro.CSR, repro.Compressed}
	f.Fuzz(func(t *testing.T, data []byte) {
		if digitRun(data, 3) {
			t.Skip()
		}
		var first string
		for i, rep := range reps {
			g, err := repro.ReadGraph(bytes.NewReader(data), repro.FormatAuto, rep)
			fp := "error"
			if err == nil {
				fp = repro.Fingerprint(g)
				var el bytes.Buffer
				if err := repro.WriteEdgeList(&el, g); err != nil {
					t.Fatal(err)
				}
				back, err := repro.ReadGraph(&el, repro.FormatAuto, rep)
				if err != nil || repro.Fingerprint(back) != fp {
					t.Fatalf("%v: the graph read does not survive WriteEdgeList -> ReadGraph (error %v)", rep, err)
				}
			}
			if i == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("%v reads %s where %v reads %s", rep, fp, reps[0], first)
			}
		}
	})
}
