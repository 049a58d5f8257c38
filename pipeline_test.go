package repro_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro"
)

// FuzzReadExpressionTSV holds the microarray front end's byte boundary:
// every input is an error or a matrix whose values are all finite and
// come back equal through WriteExpressionTSV -> ReadExpressionTSV.  A
// gene without a name is written under its default one.
func FuzzReadExpressionTSV(f *testing.F) {
	for _, seed := range []string{
		"", "gene\n", "gene\tcond_1\tcond_2\na\t1.0\n", "gene\tcond_1\na\tnotanumber\n",
		"gene\tcond_1\n\na\t1.5\n", "gene\tcond_1\tcond_2\na\t1\t2\nc\tNaN\t2\n", "gene\tc\n\t-0\nb\t1e308\n",
		"gene\tcond_1\tcond_2\tcond_3\na\t1\t2\t3\nb\t-inf\t0x1p-2\t4\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := repro.ReadExpressionTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for g, row := range m.Data {
			for c, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("gene %d condition %d: non-finite %v accepted", g, c, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := repro.WriteExpressionTSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := repro.ReadExpressionTSV(&buf)
		if err != nil {
			t.Fatalf("the matrix read does not survive WriteExpressionTSV -> ReadExpressionTSV: %v", err)
		}
		if back.Genes != m.Genes || back.Conditions != m.Conditions {
			t.Fatalf("shape %dx%d came back %dx%d", m.Genes, m.Conditions, back.Genes, back.Conditions)
		}
		for g := range m.Genes {
			name := m.Names[g]
			if name == "" {
				name = fmt.Sprintf("gene_%d", g)
			}
			if back.Names[g] != name {
				t.Fatalf("gene %d: name %q came back %q", g, name, back.Names[g])
			}
			for c := range m.Conditions {
				if back.Data[g][c] != m.Data[g][c] {
					t.Fatalf("gene %d condition %d: %v came back %v", g, c, m.Data[g][c], back.Data[g][c])
				}
			}
		}
	})
}
