package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// cliquerRun is what the benchmark observes of one cliquer child process,
// all of it from outside: its output, its exit and its resource usage.
type cliquerRun struct {
	start    time.Time
	wall     float64 // exec to exit, seconds
	headerAt time.Time
	rssMB    float64 // peak resident set of the child (the coordinator, for -dist)
	dig      *digester
	govPeak  int64
	spill    int64
	releases int
	deaths   int
	levelAt  []time.Time // arrival of each -stats level line on stderr
	stderr   string
}

// ttfc is the time from exec to the first clique line, in seconds.
func (c *cliquerRun) ttfc() float64 {
	if c.dig.first.IsZero() {
		return 0
	}
	return c.dig.first.Sub(c.start).Seconds()
}

// runCliquer runs the cliquer binary to completion, hashing the clique
// lines of its stdout (header and summary lines are set aside, as in the
// verify notes: "graph:", "maximum clique:", "done", and every indented
// detail line) and parsing the summary for the counters it prints.
func runCliquer(ctx context.Context, bin string, args ...string) (*cliquerRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	run := &cliquerRun{dig: newDigester(), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cliquer: %w", err)
	}
	rss := watchPeakRSS(cmd.Process.Pid)
	var wg sync.WaitGroup
	wg.Add(1)
	var errBuf bytes.Buffer
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "level ") {
				run.levelAt = append(run.levelAt, time.Now())
				continue
			}
			errBuf.WriteString(sc.Text())
			errBuf.WriteByte('\n')
		}
	}()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		run.stdoutLine(sc.Bytes())
	}
	wg.Wait() // both pipes are drained before Wait closes them
	werr := cmd.Wait()
	run.wall = time.Since(run.start).Seconds()
	run.stderr = errBuf.String()
	run.rssMB = rss.stop()
	if werr != nil {
		return run, fmt.Errorf("cliquer %s: %w: %s", strings.Join(args, " "), werr, strings.TrimSpace(run.stderr))
	}
	return run, nil
}

// peakRSSMB reads the peak resident set (VmHWM) of a live process.  The
// ru_maxrss that wait4 reports for a child is no use here: a child started
// with vfork+exec inherits the parent's high-water mark as its floor, so a
// harness that once held 100 MB would report 100 MB for every child.
func peakRSSMB(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false // the process is gone
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0, false // a zombie has no memory map left
	}
	var kb float64
	if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
		return 0, false
	}
	return kb / 1024, true
}

// rssWatch polls a child's peak resident set until stopped.  The mark only
// rises, so the last reading before the process exits is its peak to
// within one polling interval of its life.
type rssWatch struct {
	quit chan struct{}
	done chan float64
}

func watchPeakRSS(pid int) *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			if mb, ok := peakRSSMB(pid); ok && mb > peak {
				peak = mb
			}
			select {
			case <-w.quit:
				w.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the polling and returns the highest mark seen.
func (w *rssWatch) stop() float64 {
	close(w.quit)
	return <-w.done
}

func (c *cliquerRun) stdoutLine(line []byte) {
	s := string(line)
	switch {
	case strings.HasPrefix(s, "graph:"):
		c.headerAt = time.Now()
	case strings.HasPrefix(s, "maximum clique:"), strings.HasPrefix(s, "done"),
		strings.HasPrefix(s, "interrupted"), strings.HasPrefix(s, "aborted"):
	case strings.HasPrefix(s, "  "):
		// Detail lines of the summary; a failed Sscanf leaves the field 0.
		switch d := strings.TrimSpace(s); {
		case strings.HasPrefix(d, "governor peak:"):
			fmt.Sscanf(d, "governor peak: %d bytes", &c.govPeak)
		case strings.HasPrefix(d, "spill:"):
			fmt.Sscanf(d, "spill: %d bytes written", &c.spill)
		case strings.HasPrefix(d, "dist:"):
			var workers int
			fmt.Sscanf(d, "dist: %d worker processes, %d re-leased shards, %d worker deaths", &workers, &c.releases, &c.deaths)
		}
	default:
		c.dig.textLine(line)
	}
}
