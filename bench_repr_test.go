package repro_test

// BenchmarkRepresentations measures the representation trade-off on a
// sparse and a dense synthetic graph: enumeration time per backend with
// the peak adjacency bytes attached as a custom metric.  `make bench`
// runs a short sweep; the recorded numbers for the same trade-off are
// the benchmark's per-layer metrics graph.bytes and
// graph.row_probe_{dense,csr,wah}_ns (benchmark/README.md lists them;
// benchmark/PERF.md is the record).

import (
	"context"
	"fmt"
	"testing"

	"repro"
)

func benchScenario(b *testing.B, name string, n, adds int, seed int64) {
	for _, rep := range []repro.Representation{repro.Dense, repro.CSR, repro.Compressed} {
		g := buildRepGraph(b, rep, n, adds, seed)
		b.Run(fmt.Sprintf("%s/%v", name, rep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.NewEnumerator(repro.WithBounds(3, 0)).
					Run(context.Background(), g, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Bytes()), "adj-bytes")
		})
	}
}

func BenchmarkRepresentations(b *testing.B) {
	// Sparse: the genome-scale shape (average degree ~16 here, scaled
	// down so the dense variant stays benchable).
	benchScenario(b, "sparse-n4000-deg16", 4000, 4000*8, 21)
	// Dense-ish: the paper's microarray-graph density regime.
	benchScenario(b, "dense-n700", 700, 700*45, 22)
}
