package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// TestShardSnapshotNeverTornMidBatch races reads through snapshot handles
// against writers streaming PutSteps batches over 4 shards (run under
// -race). Each material receives a monotone per-material sequence, and a
// shard applies its part of a batch in one transaction, so no read may see
// a material torn mid-batch: every history is the contiguous prefix
// 0..n-1. A router's handle pins nothing — each read is answered from its
// server's state when the request arrives — so the valid-time most-recent
// read between two history reads must fall inside the prefixes they bound.
func TestShardSnapshotNeverTornMidBatch(t *testing.T) {
	db := openShards(t, 4)
	const mats = 8
	oids := make([]storage.OID, mats)
	begin(t, db)
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.DefineStepClass("measure", []labbase.AttrDef{{Name: "reading", Kind: labbase.KindInt}}); err != nil {
		t.Fatal(err)
	}
	for i := range oids {
		oid, err := db.CreateMaterial("sample", fmt.Sprintf("t-%d", i), "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	commit(t, db)

	const (
		readers  = 4
		batches  = 40
		batchLen = 6
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := db.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				bad := false
				for m, oid := range oids {
					before, err1 := snap.History(oid)
					v, _, found, err2 := snap.MostRecent(oid, "reading")
					after, err3 := snap.History(oid)
					if err := errors.Join(err1, err2, err3); err != nil {
						errs <- fmt.Errorf("reader %d: m%d: %w", r, m, err)
						bad = true
						break
					}
					last := int64(-1)
					if found {
						last = v.Int
					}
					if !isPrefix(before) || !isPrefix(after) || last < int64(len(before)-1) || last > int64(len(after)-1) {
						errs <- fmt.Errorf("reader %d: m%d torn: most-recent %v (found=%v) read between histories %v and %v",
							r, m, v, found, before, after)
						bad = true
						break
					}
				}
				snap.Close()
				if bad {
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		next := make([]int64, mats)
		for b := 0; b < batches; b++ {
			// Each batch spans every material, so the parallel apply fans
			// out across all four shards at once.
			specs := make([]labbase.StepSpec, 0, mats*batchLen)
			for m := range oids {
				for k := 0; k < batchLen; k++ {
					specs = append(specs, labbase.StepSpec{
						Class: "measure", ValidTime: next[m],
						Materials: []storage.OID{oids[m]},
						Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(next[m])}},
					})
					next[m]++
				}
			}
			if _, err := db.PutSteps(specs); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// isPrefix reports whether a history is the contiguous sequence 0..n-1.
func isPrefix(h []labbase.HistoryEntry) bool {
	for j, e := range h {
		if e.ValidTime != int64(j) {
			return false
		}
	}
	return true
}
