package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// maxWorkers is the most worker threads, worker processes or HTTP
// connections any workload uses: the box this record is taken on has two
// cores, and a workload that oversubscribes them measures the scheduler.
const maxWorkers = 2

// env is what every workload shares: where the checkout is, the one temp
// root that holds every input, spill directory and output of the run, and
// the two binaries under test.
type env struct {
	ctx     context.Context
	seed    int64  // the workload seed of this run
	root    string // the checkout (holds go.mod, cmd/, BENCHMARK.json)
	tmp     string // removed by close on every exit path
	outDir  string // benchmark/out: traces and results.json
	cliquer string
	cliqued string
	buildS  float64
	log     io.Writer
}

// findRoot resolves the checkout root: -root when given, else the working
// directory or its parent (go run -C benchmark . starts inside benchmark/).
func findRoot(flagRoot string) (string, error) {
	cands := []string{flagRoot}
	if flagRoot == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		cands = []string{wd, filepath.Dir(wd)}
	}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json in %v (pass -root)", cands)
}

func newEnv(ctx context.Context, root string, log io.Writer) (*env, error) {
	if runtime.NumCPU() < maxWorkers {
		return nil, fmt.Errorf("the workloads use %d workers but this machine has %d CPU(s); refusing to measure an oversubscribed box", maxWorkers, runtime.NumCPU())
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cliquer")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-*")
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx: ctx, root: root, tmp: tmp, log: log,
		outDir:  filepath.Join(root, "benchmark", "out"),
		cliquer: filepath.Join(bin, "cliquer"),
		cliqued: filepath.Join(bin, "cliqued"),
	}
	// Built once per checkout: go build leaves an up-to-date binary alone.
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/cliquer", "./cmd/cliqued")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, errors.Join(fmt.Errorf("go build ./cmd/cliquer ./cmd/cliqued: %w\n%s", err, out), e.close())
	}
	e.buildS = time.Since(start).Seconds()
	return e, nil
}

// close removes the temp root: inputs, spill directories, child outputs.
func (e *env) close() error {
	return os.RemoveAll(e.tmp)
}

// dir makes a fresh directory under the temp root.
func (e *env) dir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern+"-*")
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// header describes the machine and the code the record was taken on.
func (e *env) header() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commitID(e.root),
		"spill_fs":   fsType(e.tmp),
		"build_s":    fmt.Sprintf("%.2f", e.buildS),
	}
}

func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a driver checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// selfMaxRSSMB is the harness process's own peak resident set.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
