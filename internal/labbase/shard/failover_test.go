package shard

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/repl"
	"labflow/internal/wire"
)

// TestRouterFailover kills one shard's primary server and checks the
// health monitor's warm-standby path end to end: the down shard's standby
// is promoted over the wire, the pool retargets to the standby's address,
// and once a full server answers there the shard serves again — all
// without a new router. The post-promotion takeover (a real server
// replacing the StandbyServer on the same address) is the process-level
// flow in cmd/labbase-server, compressed in-process here.
func TestRouterFailover(t *testing.T) {
	const n = 2
	topo := Topology{Shards: make([]string, n), Standbys: make([]string, n)}
	members := make([]*Member, n)
	stops := make([]func(), n)
	for k := 0; k < n; k++ {
		m, err := OpenMember(memstore.Open("fo-mm"), k, n, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		members[k] = m
		t.Cleanup(func() { m.Close() })
		topo.Shards[k], stops[k] = serveStore(t, m, "127.0.0.1:0")
	}

	// Shard 1's warm standby: a StandbyServer over its own media. The
	// router only drives the promote handshake; record shipping itself is
	// exercised by the storage and wire tests.
	st, err := repl.OpenFileStandby(filepath.Join(t.TempDir(), "standby1.db"), 4)
	if err != nil {
		t.Fatal(err)
	}
	ss := wire.NewStandbyServer(st)
	ss.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr := ln.Addr().String()
	topo.Standbys[1] = standbyAddr
	promoted := make(chan struct{})
	go func() {
		ss.Serve(ln)
		close(promoted)
	}()
	t.Cleanup(func() {
		ln.Close()
		ss.Shutdown()
		st.Close()
	})

	r := openTestRouter(t, topo, RouterOptions{HealthInterval: 25 * time.Millisecond})
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineMaterialClass("clone", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineState("waiting"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateMaterial("clone", "m-on-1", "waiting", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	// Kill shard 1's primary. The health monitor marks it down, fails the
	// revival probe, and promotes the standby.
	stops[1]()
	select {
	case <-promoted:
	case <-time.After(10 * time.Second):
		t.Fatal("standby was never promoted")
	}
	if !ss.Promoted() {
		t.Fatal("standby server shut down without promotion")
	}

	// The promoted process reopens its media and serves on the standby's
	// address; here the member's store stands in for the replicated media.
	_, stopNew := serveStore(t, members[1], standbyAddr)
	t.Cleanup(stopNew)

	// The shard rejoins through the normal handshake on the new address.
	deadline := time.Now().Add(10 * time.Second) //lint:allow wallclock test timeout bound
	for {
		if _, err := r.CountMaterials("clone"); err == nil {
			break
		} else if time.Now().After(deadline) { //lint:allow wallclock test timeout bound
			t.Fatalf("shard never rejoined after failover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.pools[1].address(); got != standbyAddr {
		t.Errorf("shard 1 pool targets %s, want promoted standby %s", got, standbyAddr)
	}
	if fo := r.Metrics().Failovers; len(fo) != n || fo[1] != 1 || fo[0] != 0 {
		t.Errorf("Failovers = %v, want exactly one on shard 1", fo)
	}
	// Data routed to shard 1 before the failover is served by the
	// promoted member.
	if oid, found := r.LookupMaterial("m-on-1"); !found || oid.IsNil() {
		t.Errorf("material lost across failover (found=%v)", found)
	}
}

// TestPoolClosedState pins the close-state contract directly: a checkout
// after closeAll fails, and a connection returned after closeAll is closed
// rather than parked (the pre-fix behavior leaked it in the idle list).
func TestPoolClosedState(t *testing.T) {
	db, err := labbase.Open(memstore.Open("pool-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	addr, stop := serveStore(t, db, "127.0.0.1:0")
	t.Cleanup(stop)

	p := newPool(0, addr, time.Second, wire.DialTimeout)
	c, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	p.closeAll()

	p.put(c) // in-flight return after close: must close, not park
	if len(p.idle) != 0 {
		t.Fatalf("connection parked in a closed pool (%d idle)", len(p.idle))
	}
	if _, _, _, err := c.ShardInfo(); err == nil {
		t.Error("connection still usable after put into closed pool")
	}
	if _, err := p.get(); !errors.Is(err, ErrShardDown) || !strings.Contains(err.Error(), "closed") {
		t.Errorf("get after close: err = %v, want router-closed ErrShardDown", err)
	}
}

// TestRouterCloseRace races Close against in-flight operations: under the
// race detector this pins the pool's closed-state handling (no connection
// may be parked after closeAll, no double close, no lost update).
func TestRouterCloseRace(t *testing.T) {
	r, err := OpenRouter(startCluster(t, 2), RouterOptions{HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 100; j++ {
				if _, err := r.CountMaterials("anything"); err != nil {
					return // closed under us — expected
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	r.Close()
	wg.Wait()
	// After Close every pool refuses checkouts.
	for k, p := range r.pools {
		if _, err := p.get(); err == nil {
			t.Errorf("pool %d still hands out connections after Close", k)
		}
	}
}
