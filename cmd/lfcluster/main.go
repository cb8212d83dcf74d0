// Command lfcluster launches and supervises an n-server LabBase shard
// cluster on the local machine: one labbase-server subprocess per shard
// (each started with -shard k/n over its own store file), a topology file
// collecting their bound addresses for routers to consume, and a clean
// fan-out shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	lfcluster -n 4 -store texas+tc -dir /var/lab/cluster -topology shards.json
//	lfload -topology shards.json -workers 16 -json     # in another terminal
//
// Each server listens on a kernel-assigned loopback port and reports it
// through -addrfile, so no port coordination is needed. Once every shard is
// up, lfcluster writes the topology file and prints "ready: <addrs>"; it
// then waits until signalled (or until a server dies, which tears the
// cluster down with a non-zero exit). Shutdown forwards SIGTERM to every
// server and waits -killafter for each to drain its connections and close
// its store; a server that ignores the signal is SIGKILLed and lfcluster
// exits non-zero naming it (a store left behind a killed server may need
// recovery, so the operator must hear about it).
//
// -standbys additionally launches one warm standby per shard
// (labbase-server -standby) and wires each primary's -ship flag to it; the
// topology file then carries the standby addresses, so a router can
// promote a follower when its primary dies (DESIGN §8). With standbys on,
// a dead primary does not tear the cluster down — that is exactly the
// failure the standby exists to absorb.
//
// -server names the labbase-server binary (default: found on PATH; CI
// points it at a freshly built one).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"labflow/internal/labbase/shard"
)

func main() {
	var (
		n        = flag.Int("n", 2, "number of shard servers")
		store    = flag.String("store", "texas+tc", "store backend for every shard (see labbase-server -store)")
		dir      = flag.String("dir", "", "working directory for store files and addrfiles (default: a temp dir, removed at exit)")
		topoOut  = flag.String("topology", "shards.json", "write the cluster topology (JSON) to this file")
		server   = flag.String("server", "labbase-server", "labbase-server binary to launch")
		startTO  = flag.Duration("start-timeout", 30*time.Second, "how long to wait for every shard to come up")
		killTO   = flag.Duration("killafter", 10*time.Second, "grace period between SIGTERM and SIGKILL at shutdown")
		standbys = flag.Bool("standbys", false, "launch a warm standby per shard and ship each primary's redo stream to it")
		keep     = flag.Bool("keep", false, "keep the working directory")
	)
	flag.Parse()
	if err := run(*n, *store, *dir, *topoOut, *server, *startTO, *killTO, *standbys, *keep); err != nil {
		log.Fatalf("lfcluster: %v", err)
	}
}

// proc is one supervised server subprocess. done is closed by the single
// watcher goroutine once Wait returns; everything else joins on the
// channel, never on Wait itself (a second Wait races the first and can
// return before the process is reaped).
type proc struct {
	label string
	cmd   *exec.Cmd
	done  chan struct{}
}

// launch starts one labbase-server and its watcher goroutine; the watcher
// announces the death on died by procs-slice index.
func launch(server, label string, args []string, idx int, died chan<- int) (*proc, error) {
	cmd := exec.Command(server, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", label, err)
	}
	p := &proc{label: label, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
		died <- idx
	}()
	return p, nil
}

func run(n int, store, dir, topoOut, server string, startTO, killTO time.Duration, standbys, keep bool) error {
	if n < 1 || n > shard.MaxShards {
		return fmt.Errorf("-n %d outside [1, %d]", n, shard.MaxShards)
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "lfcluster-*")
		if err != nil {
			return err
		}
		dir = tmp
		if !keep {
			defer os.RemoveAll(tmp)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Launch order with standbys on: standby k first (its bound address
	// feeds the primary's -ship flag), then primary k. procs indices:
	// primaries 0..n-1, standbys n..2n-1.
	total := n
	if standbys {
		total = 2 * n
	}
	procs := make([]*proc, total)
	died := make(chan int, total)
	fail := func(err error) error {
		stopAll(procs, killTO)
		return err
	}
	topo := shard.Topology{Shards: make([]string, n)}
	if standbys {
		topo.Standbys = make([]string, n)
	}
	for k := 0; k < n; k++ {
		shipAddr := ""
		if standbys {
			label := fmt.Sprintf("standby %d", k)
			p, err := launch(server, label, []string{
				"-addr", "127.0.0.1:0",
				"-standby",
				"-store", store,
				"-path", filepath.Join(dir, fmt.Sprintf("standby%d.db", k)),
				"-shard", fmt.Sprintf("%d/%d", k, n),
				"-addrfile", addrfile(dir, label),
			}, n+k, died)
			if err != nil {
				return fail(err)
			}
			procs[n+k] = p
			addr, err := awaitAddr(dir, label, startTO, died, procs)
			if err != nil {
				return fail(err)
			}
			topo.Standbys[k] = addr
			shipAddr = addr
		}
		label := fmt.Sprintf("shard %d", k)
		args := []string{
			"-addr", "127.0.0.1:0",
			"-store", store,
			"-path", filepath.Join(dir, fmt.Sprintf("shard%d.db", k)),
			"-shard", fmt.Sprintf("%d/%d", k, n),
			"-addrfile", addrfile(dir, label),
		}
		if shipAddr != "" {
			args = append(args, "-ship", shipAddr)
		}
		p, err := launch(server, label, args, k, died)
		if err != nil {
			return fail(err)
		}
		procs[k] = p
		addr, err := awaitAddr(dir, label, startTO, died, procs)
		if err != nil {
			return fail(err)
		}
		topo.Shards[k] = addr
	}
	if err := writeTopology(topoOut, topo); err != nil {
		return fail(err)
	}
	fmt.Printf("ready: %s\n", strings.Join(topo.Shards, ","))

	// Supervise until signalled. Without standbys any server death tears
	// the cluster down; with them, a dead primary is the failure the
	// standby absorbs — log it and keep the rest running.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-sig:
			log.Print("lfcluster: shutting down")
			return stopAll(procs, killTO)
		case idx := <-died:
			p := procs[idx]
			if standbys && idx < n {
				log.Printf("lfcluster: %s exited; its warm standby can take over", p.label)
				procs[idx] = nil
				continue
			}
			stopAll(procs, killTO)
			return fmt.Errorf("%s server exited; cluster torn down", p.label)
		}
	}
}

// addrfile names a server's address file after its label ("shard 0" →
// shard0.addr, "standby 2" → standby2.addr).
func addrfile(dir, label string) string {
	return filepath.Join(dir, strings.ReplaceAll(label, " ", "")+".addr")
}

// awaitAddr polls for one server's addrfile, failing early if any already-
// launched server dies while we wait.
func awaitAddr(dir, label string, timeout time.Duration, died <-chan int, procs []*proc) (string, error) {
	const poll = 20 * time.Millisecond
	for waited := time.Duration(0); ; waited += poll {
		select {
		case dead := <-died:
			return "", fmt.Errorf("%s server exited during startup", procs[dead].label)
		default:
		}
		b, err := os.ReadFile(addrfile(dir, label))
		if err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		if waited >= timeout {
			return "", fmt.Errorf("%s not up after %v", label, timeout)
		}
		time.Sleep(poll)
	}
}

func writeTopology(path string, topo shard.Topology) error {
	data, err := json.Marshal(topo)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stopAll SIGTERMs every running server and waits up to grace for all of
// them to drain and exit. A server still running when the grace period
// expires is SIGKILLed and reported through the returned error — its store
// may have been cut mid-write and need recovery, so the exit status must
// say so. (The pre-escalation version waited on each server without bound:
// one wedged store Close stalled shutdown forever.)
func stopAll(procs []*proc, grace time.Duration) error {
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	// One shared deadline: grace bounds the whole shutdown, not each server
	// in sequence. Once it fires, every remaining server gets the axe.
	deadline := time.NewTimer(grace)
	defer deadline.Stop()
	var killed []string
	for _, p := range procs {
		if p == nil || p.cmd.Process == nil {
			continue
		}
		select {
		case <-p.done:
		case <-deadline.C:
			deadline.Reset(0)
			p.cmd.Process.Kill()
			<-p.done
			killed = append(killed, p.label)
		}
	}
	if len(killed) > 0 {
		return fmt.Errorf("server(s) ignored SIGTERM past %v and were killed: %s", grace, strings.Join(killed, ", "))
	}
	return nil
}
