package core

import (
	"reflect"
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// TestOneShardMatchesPlain is the sharding byte-identity acceptance test at
// the workload level: the full table10 benchmark driven through a 1-shard
// cluster (shard.Open: a router → wire frames → wire.Server → shard member
// chain, in one process) must produce results identical to running
// directly against the same store — same per-interval simulated counters
// (faults, page writes, sizes), same step/query/dump counts, same store
// name. Shard 0's OID encoding is the identity and one shard passes
// through the core whole, so any divergence is a router, wire or member
// bug. Run with -race this also stresses the
// router's pool and the server's locking on the table10 mix.
func TestOneShardMatchesPlain(t *testing.T) {
	p := testParams()
	for _, k := range []StoreKind{StoreOStoreMM, StoreOStore, StoreTexasTC} {
		plain, err := Run(k, t.TempDir(), p)
		if err != nil {
			t.Fatalf("%s plain: %v", k, err)
		}
		sm, err := MakeStore(k, t.TempDir(), p)
		if err != nil {
			t.Fatal(err)
		}
		db, err := shard.Open([]storage.Manager{sm}, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := RunStore(db, p)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s 1-shard: %v", k, err)
		}
		if !reflect.DeepEqual(plain, sharded) {
			t.Errorf("%s: 1-shard cluster diverges from plain DB:\nplain:   %+v\nsharded: %+v", k, plain, sharded)
		}
	}
}

// TestRunStoreRejectsMultiShard pins the single-partition contract:
// table10's gel batches span arbitrary materials, so handing RunStore a
// multi-shard store must be refused with an error that says why.
func TestRunStoreRejectsMultiShard(t *testing.T) {
	db, err := shard.Open([]storage.Manager{memstore.Open("mm"), memstore.Open("mm")}, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = RunStore(db, testParams())
	if err == nil {
		t.Fatal("RunStore over 2 shards succeeded, want single-partition rejection")
	}
	if !strings.Contains(err.Error(), "single-partition") {
		t.Fatalf("rejection does not cite the contract: %v", err)
	}
}
