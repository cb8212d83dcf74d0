package core

import (
	"net"
	"reflect"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

// TestRouterOverOneServerTable10MatchesPlain is the distributed-topology
// byte-identity acceptance test at the workload level: the full table10
// benchmark driven through a shard.Router → TCP → wire.Server → labbase.DB
// chain must produce simulated results identical to running directly
// against the same store in process: every fault count, page write, size,
// step/query/dump counter, and the store name must survive the round trip
// exactly.
func TestRouterOverOneServerTable10MatchesPlain(t *testing.T) {
	p := testParams()
	plain, err := Run(StoreOStoreMM, t.TempDir(), p)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}

	db, err := labbase.Open(memstore.Open("OStore-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		ln.Close()
		srv.Shutdown()
		<-done
		db.Close()
	}()

	r, err := shard.OpenRouter(shard.Topology{Shards: []string{ln.Addr().String()}}, shard.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := RunStore(r, p)
	if err != nil {
		t.Fatalf("routed: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, routed) {
		t.Errorf("router-over-1-server diverges from in-process run:\nplain:  %+v\nrouted: %+v", plain, routed)
	}
}
