package core

import (
	"reflect"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
)

// TestOneShardMatchesPlain is the sharding byte-identity acceptance test:
// the full table10 workload routed through a 1-shard shard.DB must produce
// results identical to the plain labbase.DB — same per-interval simulated
// counters (faults, page writes, sizes), same step/query/dump counts, same
// store name. Shard 0's OID encoding is the identity and the facade's
// 1-shard paths delegate whole, so any divergence is a facade bug. Run
// with -race this also stresses the facade's locking on the table10 mix.
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
		a, b := stripTimings(plain), stripTimings(sharded)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: 1-shard facade diverges from plain DB:\nplain:   %+v\nsharded: %+v", k, a, b)
		}
	}
}
