package labbase

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/storagetest"
)

// TestAppendCopiesNoChunk appends to a history head and an extent head that
// have room, over ostore and over memstore: the head is changed where it
// lies, so an append allocates at most its closure and nothing the size of
// a chunk, and the head stays the chain's only chunk.
func TestAppendCopiesNoChunk(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	om, err := ostore.Open(ostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range []storage.Manager{memstore.Open("append-mm"), om} {
		t.Run(sm.Name(), func(t *testing.T) {
			db, err := Open(sm, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Begin(); err != nil {
				t.Fatal(err)
			}
			defer db.Commit()
			for _, c := range []*chain{&historyChain, &extentChain} {
				entry := make([]byte, c.size)
				var head storage.OID
				var total uint64
				add := func() {
					if err := db.add(c, &head, total, storage.NilOID, entry); err != nil {
						t.Fatal(err)
					}
					total++
				}
				add() // the chain's first chunk
				first := head
				// AllocsPerRun makes one warm-up call before the measured ones.
				if allocs := testing.AllocsPerRun(20, add); allocs > 1 {
					t.Errorf("%s: %v allocations per append; want at most the closure", c.name, allocs)
				}
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					add()
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 128 {
					t.Errorf("%s: %d bytes allocated per append (a chunk is %d)", c.name, per, c.chunkSize())
				}
				if head != first || total != 42 {
					t.Fatalf("%s: head %v after %d appends; want the first chunk %v", c.name, head, total, first)
				}
				var seen uint64
				if err := db.walk(c, head, total, func(b []byte) error {
					seen += uint64(len(b) / c.size)
					return nil
				}); err != nil || seen != total {
					t.Fatalf("%s: walk saw %d of %d entries: %v", c.name, seen, total, err)
				}
			}
		})
	}
}

// TestAppendRefusesDisagreeingHead: an append checks the head chunk, and
// its count against the chain's total, before it writes; a head that fails
// the check or disagrees (a stale total, or a head the count says should
// not exist) fails as rec.ErrCorrupt and is left as it was.
func TestAppendRefusesDisagreeingHead(t *testing.T) {
	db, err := Open(memstore.Open("append-mm"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	defer db.Commit()
	entry := make([]byte, historyEntrySize)
	var head storage.OID
	for total := range uint64(3) {
		if err := db.add(&historyChain, &head, total, storage.NilOID, entry); err != nil {
			t.Fatal(err)
		}
	}
	before, err := db.sm.Read(head)
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []uint64{0, 2, 4, 64 + 5} {
		h := head
		if err := db.add(&historyChain, &h, total, storage.NilOID, entry); !errors.Is(err, rec.ErrCorrupt) || h != head {
			t.Errorf("append at total %d to a head holding 3: %v, head %v; want rec.ErrCorrupt and %v", total, err, h, head)
		}
	}
	if after, err := db.sm.Read(head); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused append changed the head: %v", err)
	}
	// A head whose count agrees but whose capacity field is not the
	// chain's fails the chunk check.
	bad := bytes.Clone(before)
	bad[2]++
	if err := db.sm.Write(head, bad); err != nil {
		t.Fatal(err)
	}
	h := head
	if err := db.add(&historyChain, &h, 3, storage.NilOID, entry); !errors.Is(err, rec.ErrCorrupt) {
		t.Errorf("append to a head with capacity %d: %v; want rec.ErrCorrupt", bad[2], err)
	}
}

// TestRepeatedTargetAppendsTwice: a step that names a material both
// directly and through its set threads two entries into that material's
// history, through the one material record, across a chunk boundary.
func TestRepeatedTargetAppendsTwice(t *testing.T) {
	db, err := Open(memstore.Open("append-mm"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineMaterialClass("clone", ""); err != nil {
		t.Fatal(err)
	}
	m, err := db.CreateMaterial("clone", "c0", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	set, err := db.CreateMaterialSet([]storage.OID{m})
	if err != nil {
		t.Fatal(err)
	}
	var steps []storage.OID
	for i := range 40 {
		step, err := db.RecordStep(StepSpec{Class: "gel", ValidTime: int64(i), Materials: []storage.OID{m}, Set: set})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		steps = append(steps, step, step)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	h, err := db.History(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != len(steps) {
		t.Fatalf("history holds %d entries; want %d", len(h), len(steps))
	}
	for i, e := range h {
		if e.Step != steps[i] {
			t.Fatalf("history entry %d is step %v; want %v", i, e.Step, steps[i])
		}
	}
}
