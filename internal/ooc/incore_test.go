package ooc_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/ooc"
)

func TestIOVolumeExceedsInCorePeak(t *testing.T) {
	// The out-of-core design's defining property: total bytes moved
	// through disk dwarf the in-core peak residency — the paper's
	// "intensive disk I/O access has been the major bottleneck".
	rng := rand.New(rand.NewSource(124))
	g := graph.PlantedGraph(rng, 100, []graph.PlantedCliqueSpec{{Size: 11}}, 200)
	inCore, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ooc.Enumerate(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesWritten+st.BytesRead <= inCore.PeakBytes {
		t.Errorf("I/O %d bytes did not exceed in-core peak %d",
			st.BytesWritten+st.BytesRead, inCore.PeakBytes)
	}
}
