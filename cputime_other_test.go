//go:build !unix

package repro

import "time"

// cpuTime is not measured here: the benchmarks report 0 CPU time.
func cpuTime() time.Duration { return 0 }
