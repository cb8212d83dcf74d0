// An external test package: it imports labbase/shard, which itself
// imports wire (the distributed Router is a wire client), so an internal
// test file here would be an import cycle.
package wire_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	. "labflow/internal/wire"
)

// startShardedServer brings up a server over an in-process cluster of the
// given shard count (shard.Open: a router over member servers on
// memstores) and returns a dialer for fresh connections.
func startShardedServer(t *testing.T, shards int) (dial func() *Client) {
	t.Helper()
	managers := make([]storage.Manager, shards)
	for k := range managers {
		managers[k] = memstore.Open("server-mm")
	}
	db, err := shard.Open(managers, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	dial = func() *Client {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return dial
}

// TestShardedServerConcurrentPutSteps drives OpPutSteps batches from many
// connections at once against a 4-shard server. Each batch waits its turn
// on the server's writer lock and runs inside one broadcast transaction;
// under -race the final counts verify that no batch was lost or doubled.
func TestShardedServerConcurrentPutSteps(t *testing.T) {
	dial := startShardedServer(t, 4)

	setup := dial()
	if _, err := setup.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := setup.DefineStepClass("measure", []labbase.AttrDef{
		{Name: "reading", Kind: labbase.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	const mats = 24
	oids := make([]storage.OID, mats)
	for i := range oids {
		oid, err := setup.CreateMaterial("sample", fmt.Sprintf("w-%d", i), "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}

	const (
		conns   = 6
		batches = 15
		perB    = 8
	)
	clients := make([]*Client, conns)
	for i := range clients {
		clients[i] = dial()
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				specs := make([]labbase.StepSpec, perB)
				for i := range specs {
					specs[i] = labbase.StepSpec{
						Class:     "measure",
						ValidTime: int64(w*1000000 + b*1000 + i),
						Materials: []storage.OID{oids[(w*17+b*5+i)%mats]},
						Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i))}},
					}
				}
				got, err := clients[w].PutSteps(specs)
				if err != nil {
					errs[w] = err
					return
				}
				if len(got) != perB {
					errs[w] = fmt.Errorf("batch returned %d oids, want %d", len(got), perB)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", w, err)
		}
	}

	check := dial()
	n, err := check.CountSteps("measure")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(conns * batches * perB); n != want {
		t.Fatalf("CountSteps = %d, want %d", n, want)
	}
	var histSum int
	for _, oid := range oids {
		h, err := check.History(oid)
		if err != nil {
			t.Fatal(err)
		}
		histSum += len(h)
	}
	if want := conns * batches * perB; histSum != want {
		t.Fatalf("history sum = %d, want %d", histSum, want)
	}
}

// TestShardedServerReads smokes the scatter-gather read opcodes through
// the wire layer against a 4-shard store.
func TestShardedServerReads(t *testing.T) {
	dial := startShardedServer(t, 4)
	c := dial()
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	const mats = 20
	for i := 0; i < mats; i++ {
		if _, err := c.CreateMaterial("sample", fmt.Sprintf("r-%d", i), "received", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.CountInState("received")
	if err != nil {
		t.Fatal(err)
	}
	if n != mats {
		t.Fatalf("CountInState = %d, want %d", n, mats)
	}
	got, err := c.MaterialsInState("received")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != mats {
		t.Fatalf("MaterialsInState returned %d, want %d", len(got), mats)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("MaterialsInState not sorted at %d", i)
		}
	}
	seen := map[int]bool{}
	for _, oid := range got {
		seen[shard.ShardOfOID(oid)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("materials only landed on shards %v", seen)
	}
}
