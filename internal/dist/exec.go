package dist

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
)

// EnvWorker marks a process as a dist worker: the environment contract
// between ExecTransport and worker processes.  Binaries that can serve as
// workers (cliquer, cliqued, the test binary) check it before flag
// parsing and hand control to WorkerMain.
const EnvWorker = "REPRO_DIST_WORKER"

// ExecTransport spawns each worker as a child process speaking the wire
// protocol over stdin/stdout — the exec/pipe transport.  The zero value
// re-executes the current binary; set Command to spawn a different
// worker binary (e.g. "cliqued" "-worker").
type ExecTransport struct {
	// Command is the worker argv.  Empty means [os.Executable(),
	// "-worker"].  The "-worker" argument is advisory (activation is by
	// environment), but it makes workers identifiable in ps/pgrep.
	Command []string

	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

func (t *ExecTransport) Dial(ctx context.Context, i int) (Conn, error) {
	argv := t.Command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolve worker binary: %w", err)
		}
		argv = []string{self, "-worker"}
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), EnvWorker+"=1")
	cmd.Stderr = os.Stderr // worker diagnostics pass through
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: start worker %d (%s): %w", i, argv[0], err)
	}
	t.mu.Lock()
	if t.procs == nil {
		t.procs = make(map[int]*exec.Cmd)
	}
	t.procs[i] = cmd
	t.mu.Unlock()
	return NewPipeConn(stdout, stdin, func() error {
		stdin.Close()
		// Reap the child; a worker killed or exiting nonzero is not an
		// error at transport level — the coordinator already classified
		// the death from the broken stream.
		_ = cmd.Wait()
		return nil
	}), nil
}

func (t *ExecTransport) Kill(i int) error {
	t.mu.Lock()
	cmd := t.procs[i]
	t.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("dist: kill: no worker on slot %d", i)
	}
	return cmd.Process.Kill()
}
