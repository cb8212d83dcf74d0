package main

import (
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHelperProcess is not a test: re-invoked by the escalation tests as a
// subprocess standing in for a labbase-server. LFCLUSTER_HELPER selects the
// behavior; without it the "test" is a no-op. The child touches the file
// named by LFCLUSTER_READY once its signal handling is installed.
func TestHelperProcess(t *testing.T) {
	mode := os.Getenv("LFCLUSTER_HELPER")
	if mode == "" {
		return
	}
	ready := func() {
		if f := os.Getenv("LFCLUSTER_READY"); f != "" {
			os.WriteFile(f, []byte("up\n"), 0o644)
		}
	}
	switch mode {
	case "ignore-term":
		// A wedged server: SIGTERM lands on deaf ears, only SIGKILL works.
		signal.Ignore(syscall.SIGTERM)
		ready()
		time.Sleep(5 * time.Minute)
	case "obey-term":
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		ready()
		<-sig
	}
	os.Exit(0)
}

// helperProc launches this test binary as a helper subprocess wrapped in
// the supervisor's proc bookkeeping, and waits for the child to report its
// signal handling installed — a SIGTERM landing earlier would hit the
// default disposition and dodge the escalation under test.
func helperProc(t *testing.T, label, mode string) *proc {
	t.Helper()
	readyFile := filepath.Join(t.TempDir(), "ready")
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(),
		"LFCLUSTER_HELPER="+mode,
		"LFCLUSTER_READY="+readyFile,
		// Under -race the child would otherwise sleep ~1s at exit (TSan's
		// atexit_sleep_ms default), blowing through short grace periods.
		"GORACE=atexit_sleep_ms=0",
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{label: label, cmd: cmd, done: make(chan struct{})}
	died := make(chan int, 1)
	go func() {
		cmd.Wait()
		close(p.done)
		died <- 0
	}()
	deadline := time.Now().Add(20 * time.Second) //lint:allow wallclock test timeout bound
	for {
		if _, err := os.Stat(readyFile); err == nil {
			return p
		}
		if time.Now().After(deadline) { //lint:allow wallclock test timeout bound
			cmd.Process.Kill()
			t.Fatalf("%s helper never reported ready", label)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopAllEscalation pins the SIGTERM→SIGKILL escalation: a server that
// ignores SIGTERM must not stall shutdown forever (the pre-fix stopAll
// blocked unboundedly on Wait); it is killed after the grace period and
// named in the returned error.
func TestStopAllEscalation(t *testing.T) {
	stubborn := helperProc(t, "shard 1", "ignore-term")
	polite := helperProc(t, "shard 0", "obey-term")

	start := time.Now() //lint:allow wallclock asserting the escalation bounds shutdown time
	err := stopAll([]*proc{polite, stubborn}, 500*time.Millisecond)
	elapsed := time.Since(start) //lint:allow wallclock asserting the escalation bounds shutdown time

	if err == nil {
		t.Fatal("stopAll returned nil despite a SIGTERM-ignoring server")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the killed server: %v", err)
	}
	if strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error names the well-behaved server: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("stopAll took %v; escalation did not bound the wait", elapsed)
	}
	// Both processes are actually reaped.
	for _, p := range []*proc{polite, stubborn} {
		select {
		case <-p.done:
		default:
			t.Errorf("%s still running after stopAll", p.label)
		}
	}
}

// TestStandbysNeedOStore: -standbys over a store with no redo log fails
// before any server is launched. The server binary does not exist, so a
// launch attempt would surface as a "start" error instead of the refusal.
func TestStandbysNeedOStore(t *testing.T) {
	for _, store := range []string{"texas", "texas+tc"} {
		dir := t.TempDir()
		topo := filepath.Join(dir, "shards.json")
		err := run(2, store, dir, topo, filepath.Join(dir, "no-such-server"), time.Second, time.Second, true, true)
		if err == nil {
			t.Fatalf("-standbys -store %s accepted", store)
		}
		if !strings.Contains(err.Error(), `"`+store+`"`) || strings.Contains(err.Error(), "start") {
			t.Errorf("-standbys -store %s: %v; want a refusal naming the store, before any launch", store, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("-standbys -store %s left files behind: %v", store, entries)
		}
	}
}

// TestStopAllClean is the happy path: servers that honor SIGTERM exit
// within the grace period and stopAll reports no error.
func TestStopAllClean(t *testing.T) {
	a := helperProc(t, "shard 0", "obey-term")
	b := helperProc(t, "shard 1", "obey-term")
	if err := stopAll([]*proc{a, b}, 10*time.Second); err != nil {
		t.Fatalf("stopAll: %v", err)
	}
}
