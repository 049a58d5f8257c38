package microarray

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := Synthesize(rng, SyntheticConfig{Genes: 7, Conditions: 5})
	m.Names = []string{"a", "b", "c", "d", "e", "f", "g"}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genes != m.Genes || got.Conditions != m.Conditions {
		t.Fatalf("shape %dx%d, want %dx%d", got.Genes, got.Conditions, m.Genes, m.Conditions)
	}
	for g := 0; g < m.Genes; g++ {
		if got.Names[g] != m.Names[g] {
			t.Errorf("name[%d] = %q", g, got.Names[g])
		}
		for c := 0; c < m.Conditions; c++ {
			if got.Data[g][c] != m.Data[g][c] {
				t.Errorf("data[%d][%d] = %g, want %g", g, c, got.Data[g][c], m.Data[g][c])
			}
		}
	}
}

func TestTSVDefaultNames(t *testing.T) {
	m := NewMatrix(2, 2)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Names[0] != "gene_0" || got.Names[1] != "gene_1" {
		t.Errorf("default names = %v", got.Names)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"no conditions": "gene\n",
		"short row":     "gene\tcond_1\tcond_2\na\t1.0\n",
		"bad number":    "gene\tcond_1\na\tnotanumber\n",
	}
	for name, input := range cases {
		if _, err := ReadTSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	// strconv.ParseFloat parses these; a matrix must not hold them.
	for _, v := range []string{"NaN", "Inf", "-inf"} {
		_, err := ReadTSV(strings.NewReader("gene\tcond_1\tcond_2\na\t1\t2\nc\t3\t" + v + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3 column 3") {
			t.Errorf("%s: err = %v, want a line 3 column 3 error", v, err)
		}
	}
	// Blank lines are tolerated.
	m, err := ReadTSV(strings.NewReader("gene\tcond_1\n\na\t1.5\n"))
	if err != nil || m.Genes != 1 || m.Data[0][0] != 1.5 {
		t.Errorf("blank-line parse: %v %+v", err, m)
	}
}

// failWriter injects a write failure after n bytes.
type failWriter struct{ n int }

var errInjected = errors.New("injected write failure")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjected
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteTSVPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := Synthesize(rng, SyntheticConfig{Genes: 50, Conditions: 20})
	for _, budget := range []int{0, 3, 100, 1000} {
		if err := WriteTSV(&failWriter{n: budget}, m); err == nil {
			t.Errorf("budget %d: write failure swallowed", budget)
		}
	}
}
