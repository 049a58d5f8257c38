package testgraph

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/membudget"
)

// NoLeaks snapshots what a run must leave the way it found it and returns
// the check to call once the run is over: the goroutine count settles
// back to at most its entry value (pool workers, pump goroutines and
// request handlers unwind asynchronously, so the check polls), gov — which
// may be nil — reports the bytes it held at entry, and every directory in
// dirs holds no entry.
func NoLeaks(t testing.TB, gov *membudget.Governor, dirs ...string) (check func()) {
	goroutines, used := runtime.NumGoroutine(), gov.Used()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > goroutines || gov.Used() != used {
			if time.Now().After(deadline) {
				t.Errorf("leak: %d goroutines now vs %d at entry, governor holds %d bytes vs %d at entry",
					runtime.NumGoroutine(), goroutines, gov.Used(), used)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, dir := range dirs {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Errorf("leak check: %v", err)
			}
			for _, e := range entries {
				t.Errorf("leftover entry after the run: %s", filepath.Join(dir, e.Name()))
			}
		}
	}
}
