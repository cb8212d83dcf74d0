package wrap

import (
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// TestStoreForwardsCapabilities: the wire server probes its store for
// ConcurrentBatches and ShardInfo, the benchmark runner for Shards. A
// decorated store must answer each probe exactly as the store it decorates.
func TestStoreForwardsCapabilities(t *testing.T) {
	rec := NewRecorder(16, time.Now()) //lint:allow wallclock test span base, never persisted
	plain, err := labbase.Open(memstore.Open("mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	member, err := shard.OpenMember(memstore.Open("mm"), 1, 2, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	sharded, err := shard.Open([]storage.Manager{memstore.Open("mm"), memstore.Open("mm")}, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for _, tc := range []struct {
		name  string
		inner labbase.Store
	}{{"labbase.DB", plain}, {"shard.Member", member}, {"shard.DB", sharded}} {
		w := Store(tc.inner, rec)
		_, innerBatches := tc.inner.(interface{ ConcurrentBatches() bool })
		_, gotBatches := w.(interface{ ConcurrentBatches() bool })
		_, innerShards := tc.inner.(interface{ Shards() int })
		_, gotShards := w.(interface{ Shards() int })
		_, innerInfo := tc.inner.(interface{ ShardInfo() (int, int) })
		_, gotInfo := w.(interface{ ShardInfo() (int, int) })
		if innerBatches != gotBatches || innerShards != gotShards || innerInfo != gotInfo {
			t.Errorf("%s: ConcurrentBatches %v->%v, Shards %v->%v, ShardInfo %v->%v", tc.name,
				innerBatches, gotBatches, innerShards, gotShards, innerInfo, gotInfo)
		}
	}
	if idx, n := Store(member, rec).(interface{ ShardInfo() (int, int) }).ShardInfo(); idx != 1 || n != 2 {
		t.Errorf("decorated member reports shard %d/%d, want 1/2", idx, n)
	}
	if n := Store(sharded, rec).(interface{ Shards() int }).Shards(); n != 2 {
		t.Errorf("decorated shard.DB reports %d shards, want 2", n)
	}
}

// TestRecorderOffRecordsNothing: decorators forward without timing until the
// recorder is enabled, and a snapshot's hold is one query span around its
// reads.
func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := NewRecorder(64, time.Now()) //lint:allow wallclock test span base, never persisted
	db, err := labbase.Open(Manager(memstore.Open("mm"), rec), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := Store(db, rec)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if spans, _ := rec.Spans(); len(spans) != 0 {
		t.Fatalf("%d spans recorded while off", len(spans))
	}
	rec.Enable(true)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.States()
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	spans, dropped := rec.Spans()
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("%d spans (%d dropped), want the read and the hold", len(spans), dropped)
	}
	read, hold := spans[0], spans[1]
	if read.Layer != LayerReader || read.Op != OpStates || hold.Layer != LayerQuery || hold.Op != OpQueryInterval {
		t.Errorf("spans %v.%v then %v.%v, want labbase.States inside lbq.query", read.Layer, read.Op, hold.Layer, hold.Op)
	}
	if hold.Start > read.Start || hold.End < read.End {
		t.Errorf("hold %d..%d does not enclose read %d..%d", hold.Start, hold.End, read.Start, read.End)
	}
}
