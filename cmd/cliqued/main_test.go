package main

import (
	"bytes"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// termOnListen is run's output sink: the moment the "listening on" line
// is written it sends this process SIGTERM, synchronously — the tightest
// form of a supervisor that stops the daemon as soon as it sees the
// address.
type termOnListen struct {
	t    *testing.T
	sent bool
}

func (w *termOnListen) Write(p []byte) (int, error) {
	if !w.sent && bytes.Contains(p, []byte("listening on")) {
		w.sent = true
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			w.t.Errorf("kill: %v", err)
		}
	}
	return len(p), nil
}

// TestSIGTERMAtAnnounceDrains pins the handler-before-announce order: a
// SIGTERM sent as the address line appears must take the graceful-drain
// path (run returns nil), not the default action (which would kill the
// test binary).
func TestSIGTERMAtAnnounceDrains(t *testing.T) {
	w := &termOnListen{t: t}
	done := make(chan error, 1)
	go func() { done <- run(w, "127.0.0.1:0", service.Config{}, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain within 10s of SIGTERM")
	}
	if !w.sent {
		t.Fatal("the listening line was never written")
	}
}
