//go:build unix

package repro

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time, user and system, the process has used so far
// on all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
