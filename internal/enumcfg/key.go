package enumcfg

import (
	"fmt"
	"strings"
)

// Key returns the deterministic canonical cache key of the clique
// stream this config produces on a given graph — the cache-correctness
// linchpin of the query service's result cache, which stores streams
// under (graph fingerprint, Config.Key()).
//
// The key identifies the OUTPUT, not the execution: every backend
// delivers the byte-identical stream for the same bounds (pinned by the
// cross-backend and cross-representation parity suites), so execution
// policy — Workers, Strategy, MemoryBudget, representation, the
// whole out-of-core knob set — is deliberately excluded.  A cached
// sequential run therefore satisfies a later 8-worker request, which is
// exactly what a hot-graph cache wants.
//
// Key applies the same defaulting Normalize does (Lo 0 -> 2) without
// validating, so equivalent spellings of a config collapse to one key;
// callers that need validation run Normalize first as usual.
func (c *Config) Key() string {
	lo := c.Lo
	if lo == 0 {
		lo = 2
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "v1:lo=%d,hi=%d", lo, c.Hi)
	if c.ReportSmall {
		sb.WriteString(",small=1")
	}
	return sb.String()
}
