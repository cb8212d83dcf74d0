package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

// serve fronts db with a wire server on addr ("127.0.0.1:0" for a fresh
// port) and returns the bound address and a stopper. The store outlives
// the server, so a test can restart one on the same address.
func serve(t *testing.T, db labbase.Store, addr string) (string, func()) {
	t.Helper()
	srv := wire.NewServer(db)
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		srv.Shutdown()
		<-done
	}
}

// cluster is n loopback servers over memstores: one plain labbase.DB for
// n = 1 (what an unsharded labbase-server runs), else n shard.Members.
type cluster struct {
	stores []labbase.Store
	addrs  []string
	stops  []func()
}

func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{}
	for k := 0; k < n; k++ {
		var db labbase.Store
		var err error
		if n == 1 {
			db, err = labbase.Open(memstore.Open("lfload-mm"), labbase.DefaultOptions())
		} else {
			db, err = shard.OpenMember(memstore.Open("lfload-mm"), k, n, labbase.DefaultOptions())
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		addr, stop := serve(t, db, "127.0.0.1:0")
		c.stores, c.addrs, c.stops = append(c.stores, db), append(c.addrs, addr), append(c.stops, stop)
	}
	t.Cleanup(func() {
		for _, stop := range c.stops {
			stop()
		}
	})
	return c
}

func (c *cluster) topology() string { return strings.Join(c.addrs, ",") }

// counts sums the materials and measure steps the servers' stores hold.
// The only error these in-process counts can return is "unknown class" —
// nothing preloaded yet — which counts as zero.
func (c *cluster) counts() (materials, steps int) {
	for _, db := range c.stores {
		m, _ := db.CountMaterials(matClass)
		s, _ := db.CountSteps(stepClass)
		materials, steps = materials+int(m), steps+int(s)
	}
	return materials, steps
}

// runJSON runs one -json load and checks the report's accounting.
func runJSON(t *testing.T, cfg config) jsonReport {
	t.Helper()
	cfg.jsonOut = true
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	return parseReport(t, cfg, out.Bytes())
}

func parseReport(t *testing.T, cfg config, out []byte) jsonReport {
	t.Helper()
	var rep jsonReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if rep.ReadOps+rep.WriteOps != rep.Ops || rep.Ops != cfg.ops {
		t.Fatalf("op accounting: %d reads + %d writes, report says %d ops, asked for %d",
			rep.ReadOps, rep.WriteOps, rep.Ops, cfg.ops)
	}
	if rep.ReadLatUS.Calls != uint64(rep.ReadOps) || rep.WriteLatUS.Calls != uint64(rep.WriteOps) {
		t.Fatalf("latency samples %d/%d for %d reads / %d writes",
			rep.ReadLatUS.Calls, rep.WriteLatUS.Calls, rep.ReadOps, rep.WriteOps)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatalf("ops_per_sec = %v", rep.OpsPerSec)
	}
	return rep
}

// TestRunAgainstServers drives a lone plain server (a one-entry topology)
// and a 2-shard member cluster, twice each: every op is accounted for,
// every read found a value (run fails otherwise), and the second run finds
// the first run's materials instead of creating its own.
func TestRunAgainstServers(t *testing.T) {
	for _, n := range []int{1, 2} {
		c := startCluster(t, n)
		cfg := config{topology: c.topology(), workers: 3, readMix: 0.7, materials: 50, ops: 1000, seed: 1}
		wantSteps := 0
		for round := 1; round <= 2; round++ {
			rep := runJSON(t, cfg)
			if rep.Shards != n || rep.ReadOps == 0 || rep.WriteOps == 0 {
				t.Fatalf("%d shards, round %d: report %+v", n, round, rep)
			}
			// Each run seeds one step per material and records its writes.
			wantSteps += cfg.materials + rep.WriteOps
			if m, s := c.counts(); m != cfg.materials || s != wantSteps {
				t.Fatalf("%d shards, round %d: servers hold %d materials and %d steps, want %d and %d",
					n, round, m, s, cfg.materials, wantSteps)
			}
		}
	}
}

// TestSelfCheckNotRetried: a material with no most-recent value fails the
// worker at once, even in a -retrydown run that would sit out any other
// error for a minute.
func TestSelfCheckNotRetried(t *testing.T) {
	c := startCluster(t, 1)
	r, err := shard.OpenRouter(shard.Topology{Shards: c.addrs}, shard.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := config{readMix: 1, materials: 4, seed: 1, retryDown: true, retryFor: time.Minute}
	if _, err := preload(r, cfg); err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	bare, err := r.CreateMaterial(matClass, "never-measured", initState, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	var res result
	worker(0, r, []storage.OID{bare}, 10, cfg, &res)
	if !errors.Is(res.err, errSelfCheck) || res.downtime != 0 {
		t.Fatalf("worker err = %v, downtime %v; want an immediate self-check failure", res.err, res.downtime)
	}
}

// TestRetryDownAcrossRestart stops shard 0's server while the loop is
// running and restarts it on the same address: the run must finish, report
// the outage, and every acknowledged write must be on the servers.
func TestRetryDownAcrossRestart(t *testing.T) {
	c := startCluster(t, 2)
	cfg := config{topology: c.topology(), workers: 4, readMix: 0.5, materials: 100, ops: 40000, seed: 1,
		retryDown: true, retryFor: 30 * time.Second, jsonOut: true}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(cfg, &out) }()
	// The write window has begun once the servers hold more steps than the
	// preload seeded.
	for steps := 0; steps <= cfg.materials; _, steps = c.counts() {
		select {
		case err := <-done:
			t.Fatalf("run ended before its write window: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	// Shutdown closes the router's pooled connections to shard 0, so its
	// next operation there fails however soon the restart follows.
	c.stops[0]()
	_, c.stops[0] = serve(t, c.stores[0], c.addrs[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep := parseReport(t, cfg, out.Bytes())
	if rep.DowntimeMS <= 0 {
		t.Fatalf("downtime_ms = %v: the restart never interrupted the loop", rep.DowntimeMS)
	}
	// A write retried across the outage may have been applied twice, so
	// the servers hold at least — not exactly — what was acknowledged.
	if _, steps := c.counts(); steps < cfg.materials+rep.WriteOps {
		t.Fatalf("servers hold %d steps, fewer than the %d seeded + %d acknowledged", steps, cfg.materials, rep.WriteOps)
	}
}
