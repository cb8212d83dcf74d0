// Package storagetest provides a conformance suite run against every
// storage-manager implementation, plus a randomized model checker that
// compares a manager against an in-memory reference model.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"labflow/internal/storage"
)

// Factory creates a fresh manager for a subtest. The cleanup responsibility
// is the caller's via t.Cleanup inside the factory.
type Factory func(t *testing.T) storage.Manager

// Conformance runs the behavioural suite shared by all managers.
func Conformance(t *testing.T, newManager Factory) {
	t.Run("AllocateReadWrite", func(t *testing.T) { testAllocateReadWrite(t, newManager(t)) })
	t.Run("GrowRelocate", func(t *testing.T) { testGrowRelocate(t, newManager(t)) })
	t.Run("Overflow", func(t *testing.T) { testOverflow(t, newManager(t)) })
	t.Run("Free", func(t *testing.T) { testFree(t, newManager(t)) })
	t.Run("Root", func(t *testing.T) { testRoot(t, newManager(t)) })
	t.Run("TxnDiscipline", func(t *testing.T) { testTxnDiscipline(t, newManager(t)) })
	t.Run("Segments", func(t *testing.T) { testSegments(t, newManager(t)) })
	t.Run("AllocateNear", func(t *testing.T) { testAllocateNear(t, newManager(t)) })
	t.Run("AllocateCluster", func(t *testing.T) { testAllocateCluster(t, newManager(t)) })
	t.Run("Update", func(t *testing.T) { testUpdate(t, newManager(t)) })
	t.Run("RandomModel", func(t *testing.T) { testRandomModel(t, newManager(t)) })
}

func begin(t *testing.T, m storage.Manager) {
	t.Helper()
	if err := m.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
}

func commit(t *testing.T, m storage.Manager) {
	t.Helper()
	if err := m.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func testAllocateReadWrite(t *testing.T, m storage.Manager) {
	begin(t, m)
	oids := make([]storage.OID, 0, 100)
	for i := 0; i < 100; i++ {
		data := []byte(fmt.Sprintf("record-%03d", i))
		oid, err := m.Allocate(storage.SegHistory, data)
		if err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
		if oid.IsNil() {
			t.Fatalf("Allocate %d returned nil OID", i)
		}
		if oid.Segment() != storage.SegHistory {
			t.Fatalf("OID segment = %v, want history", oid.Segment())
		}
		oids = append(oids, oid)
	}
	commit(t, m)

	for i, oid := range oids {
		got, err := m.Read(oid)
		if err != nil {
			t.Fatalf("Read %v: %v", oid, err)
		}
		want := fmt.Sprintf("record-%03d", i)
		if string(got) != want {
			t.Fatalf("Read %v = %q, want %q", oid, got, want)
		}
	}

	begin(t, m)
	if err := m.Write(oids[7], []byte("updated")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	commit(t, m)
	got, err := m.Read(oids[7])
	if err != nil || string(got) != "updated" {
		t.Fatalf("Read after write = %q, %v; want updated", got, err)
	}
	// Neighbours untouched.
	got, err = m.Read(oids[8])
	if err != nil || string(got) != "record-008" {
		t.Fatalf("neighbour = %q, %v; want record-008", got, err)
	}

	if _, err := m.Read(storage.NilOID); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Read(nil) error = %v, want ErrNoSuchObject", err)
	}
	if _, err := m.Read(storage.MakeOID(storage.SegMaterial, 999999)); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Read(unallocated) error = %v, want ErrNoSuchObject", err)
	}
}

func testGrowRelocate(t *testing.T, m storage.Manager) {
	begin(t, m)
	oid, err := m.Allocate(storage.SegIndex, []byte("tiny"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Pack the page with other records so in-place growth is impossible.
	for i := 0; i < 200; i++ {
		if _, err := m.Allocate(storage.SegIndex, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	big := bytes.Repeat([]byte("x"), 3000)
	if err := m.Write(oid, big); err != nil {
		t.Fatalf("growing write: %v", err)
	}
	commit(t, m)
	got, err := m.Read(oid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read after grow: len=%d err=%v, want len=%d", len(got), err, len(big))
	}
	// And shrink back.
	begin(t, m)
	if err := m.Write(oid, []byte("small again")); err != nil {
		t.Fatalf("shrinking write: %v", err)
	}
	commit(t, m)
	got, err = m.Read(oid)
	if err != nil || string(got) != "small again" {
		t.Fatalf("Read after shrink = %q, %v", got, err)
	}
}

func testOverflow(t *testing.T, m storage.Manager) {
	begin(t, m)
	sizes := []int{9000, 40000, 8178, 8179, 16368, 16369}
	oids := make([]storage.OID, len(sizes))
	wants := make([][]byte, len(sizes))
	rng := rand.New(rand.NewSource(42))
	for i, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		oid, err := m.Allocate(storage.SegHistory, data)
		if err != nil {
			t.Fatalf("Allocate %d bytes: %v", n, err)
		}
		oids[i] = oid
		wants[i] = data
	}
	commit(t, m)
	for i, oid := range oids {
		got, err := m.Read(oid)
		if err != nil {
			t.Fatalf("Read %d bytes: %v", sizes[i], err)
		}
		if !bytes.Equal(got, wants[i]) {
			t.Fatalf("overflow record %d bytes corrupted", sizes[i])
		}
	}
	// Rewrite a big record bigger, then smaller than inline.
	begin(t, m)
	bigger := make([]byte, 60000)
	rng.Read(bigger)
	if err := m.Write(oids[0], bigger); err != nil {
		t.Fatalf("grow overflow: %v", err)
	}
	commit(t, m)
	got, err := m.Read(oids[0])
	if err != nil || !bytes.Equal(got, bigger) {
		t.Fatalf("overflow grow corrupted: len=%d err=%v", len(got), err)
	}
	begin(t, m)
	if err := m.Write(oids[0], []byte("now inline")); err != nil {
		t.Fatalf("shrink overflow to inline: %v", err)
	}
	commit(t, m)
	got, err = m.Read(oids[0])
	if err != nil || string(got) != "now inline" {
		t.Fatalf("overflow->inline = %q, %v", got, err)
	}
}

func testFree(t *testing.T, m storage.Manager) {
	begin(t, m)
	a, _ := m.Allocate(storage.SegMaterial, []byte("a"))
	b, _ := m.Allocate(storage.SegMaterial, []byte("b"))
	big, _ := m.Allocate(storage.SegHistory, bytes.Repeat([]byte("z"), 20000))
	if err := m.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := m.Free(big); err != nil {
		t.Fatalf("Free overflow: %v", err)
	}
	commit(t, m)
	if _, err := m.Read(a); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Read freed = %v, want ErrNoSuchObject", err)
	}
	if got, err := m.Read(b); err != nil || string(got) != "b" {
		t.Fatalf("survivor = %q, %v", got, err)
	}
	begin(t, m)
	if err := m.Free(a); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("double Free = %v, want ErrNoSuchObject", err)
	}
	if err := m.Write(a, []byte("x")); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Write freed = %v, want ErrNoSuchObject", err)
	}
	commit(t, m)
	st := m.Stats()
	if st.LiveObjects != 1 {
		t.Errorf("LiveObjects = %d, want 1", st.LiveObjects)
	}
	if st.LiveBytes != 1 {
		t.Errorf("LiveBytes = %d, want 1", st.LiveBytes)
	}
}

func testRoot(t *testing.T, m storage.Manager) {
	if r, err := m.Root(); err != nil || !r.IsNil() {
		t.Fatalf("fresh Root = %v, %v; want nil", r, err)
	}
	begin(t, m)
	oid, err := m.Allocate(storage.SegCatalog, []byte("catalog"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := m.SetRoot(oid); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	commit(t, m)
	r, err := m.Root()
	if err != nil || r != oid {
		t.Fatalf("Root = %v, %v; want %v", r, err, oid)
	}
}

func testTxnDiscipline(t *testing.T, m storage.Manager) {
	if _, err := m.Allocate(storage.SegHistory, []byte("x")); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("Allocate outside txn = %v, want ErrNoTransaction", err)
	}
	if err := m.Commit(); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("Commit outside txn = %v, want ErrNoTransaction", err)
	}
	begin(t, m)
	if err := m.Begin(); err == nil {
		t.Fatal("nested Begin should fail")
	}
	oid, err := m.Allocate(storage.SegHistory, []byte("x"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	commit(t, m)
	if err := m.Write(oid, []byte("y")); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("Write outside txn = %v, want ErrNoTransaction", err)
	}
	// Reads are allowed outside transactions.
	if _, err := m.Read(oid); err != nil {
		t.Fatalf("Read outside txn: %v", err)
	}
}

func testSegments(t *testing.T, m storage.Manager) {
	begin(t, m)
	var oids [storage.NumSegments]storage.OID
	for seg := storage.SegmentID(0); seg < storage.NumSegments; seg++ {
		oid, err := m.Allocate(seg, []byte(seg.String()))
		if err != nil {
			t.Fatalf("Allocate seg %v: %v", seg, err)
		}
		if oid.Segment() != seg {
			t.Fatalf("OID segment = %v, want %v", oid.Segment(), seg)
		}
		oids[seg] = oid
	}
	commit(t, m)
	for seg, oid := range oids {
		got, err := m.Read(oid)
		if err != nil || string(got) != storage.SegmentID(seg).String() {
			t.Fatalf("seg %d read = %q, %v", seg, got, err)
		}
	}
	if _, err := m.Read(storage.MakeOID(storage.NumSegments+1, 1)); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("bad-segment read = %v, want ErrNoSuchObject", err)
	}
}

func testAllocateNear(t *testing.T, m storage.Manager) {
	begin(t, m)
	anchor, err := m.Allocate(storage.SegHistory, []byte("anchor"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	near, err := m.AllocateNear(anchor, []byte("companion"))
	if err != nil {
		t.Fatalf("AllocateNear: %v", err)
	}
	if near.Segment() != storage.SegHistory {
		t.Fatalf("AllocateNear segment = %v, want history", near.Segment())
	}
	commit(t, m)
	got, err := m.Read(near)
	if err != nil || string(got) != "companion" {
		t.Fatalf("Read near = %q, %v", got, err)
	}
	begin(t, m)
	if _, err := m.AllocateNear(storage.NilOID, []byte("x")); err == nil {
		t.Fatal("AllocateNear(nil) should fail")
	}
	commit(t, m)
}

func testAllocateCluster(t *testing.T, m storage.Manager) {
	begin(t, m)
	head, err := m.AllocateCluster(storage.SegHistory, []byte("cluster head"))
	if err != nil {
		t.Fatalf("AllocateCluster: %v", err)
	}
	if head.Segment() != storage.SegHistory {
		t.Fatalf("cluster OID segment = %v", head.Segment())
	}
	// Extend the cluster well past one page.
	prev := head
	var members []storage.OID
	for i := 0; i < 200; i++ {
		oid, err := m.AllocateNear(prev, bytes.Repeat([]byte{byte(i)}, 200))
		if err != nil {
			t.Fatalf("AllocateNear %d: %v", i, err)
		}
		members = append(members, oid)
		prev = oid
	}
	// Big records route through the overflow path.
	big, err := m.AllocateCluster(storage.SegHistory, bytes.Repeat([]byte("b"), 20000))
	if err != nil {
		t.Fatalf("AllocateCluster big: %v", err)
	}
	commit(t, m)
	if got, err := m.Read(head); err != nil || string(got) != "cluster head" {
		t.Fatalf("head = %q, %v", got, err)
	}
	for i, oid := range members {
		got, err := m.Read(oid)
		if err != nil || len(got) != 200 || got[0] != byte(i) {
			t.Fatalf("member %d = %d bytes, %v", i, len(got), err)
		}
	}
	if got, err := m.Read(big); err != nil || len(got) != 20000 {
		t.Fatalf("big = %d bytes, %v", len(got), err)
	}
}

// testUpdate: storage.Update changes a record, inline or overflow, in
// place and counts one write; an fn error leaves it unchanged and counts
// nothing, not even a page write at the commit; outside a transaction it is
// refused without calling fn.
func testUpdate(t *testing.T, m storage.Manager) {
	begin(t, m)
	small, err := m.Allocate(storage.SegIndex, []byte("0123456789"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	bigData := bytes.Repeat([]byte("o"), 20000)
	big, err := m.Allocate(storage.SegHistory, bigData)
	if err != nil {
		t.Fatalf("Allocate overflow: %v", err)
	}
	commit(t, m)

	// The page writes of a commit that changes no record, for comparison.
	before := m.Stats()
	begin(t, m)
	commit(t, m)
	emptyCommit := m.Stats().PageWrites - before.PageWrites

	errFn := errors.New("fn refuses")
	before = m.Stats()
	begin(t, m)
	for _, oid := range []storage.OID{small, big} {
		if err := storage.Update(m, oid, func([]byte) error { return errFn }); !errors.Is(err, errFn) {
			t.Fatalf("Update with a failing fn = %v, want its error", err)
		}
	}
	commit(t, m)
	after := m.Stats()
	if after.Writes != before.Writes || after.PageWrites-before.PageWrites != emptyCommit {
		t.Fatalf("failed Update counted %d writes and %d page writes (an empty commit writes %d)",
			after.Writes-before.Writes, after.PageWrites-before.PageWrites, emptyCommit)
	}
	if got, err := m.Read(small); err != nil || string(got) != "0123456789" {
		t.Fatalf("after a failed Update = %q, %v", got, err)
	}
	if got, err := m.Read(big); err != nil || !bytes.Equal(got, bigData) {
		t.Fatalf("overflow record after a failed Update: %d bytes, %v", len(got), err)
	}

	called := false
	if err := storage.Update(m, small, func([]byte) error { called = true; return nil }); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("Update outside txn = %v, want ErrNoTransaction", err)
	}
	if _, ok := m.(storage.Updater); ok && called {
		t.Fatal("Update outside txn called fn")
	}

	before = m.Stats()
	begin(t, m)
	if err := storage.Update(m, small, func(b []byte) error {
		if string(b) != "0123456789" {
			return fmt.Errorf("fn saw %q", b)
		}
		copy(b[3:], "abc")
		return nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := storage.Update(m, big, func(b []byte) error {
		if len(b) != len(bigData) {
			return fmt.Errorf("fn saw %d bytes, want %d", len(b), len(bigData))
		}
		b[0], b[len(b)-1] = 'x', 'y'
		return nil
	}); err != nil {
		t.Fatalf("Update overflow: %v", err)
	}
	if err := storage.Update(m, storage.MakeOID(storage.SegIndex, 999999), func([]byte) error { return nil }); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Update of a missing object = %v, want ErrNoSuchObject", err)
	}
	commit(t, m)
	after = m.Stats()
	if got, err := m.Read(small); err != nil || string(got) != "012abc6789" {
		t.Fatalf("after Update = %q, %v", got, err)
	}
	bigData[0], bigData[len(bigData)-1] = 'x', 'y'
	if got, err := m.Read(big); err != nil || !bytes.Equal(got, bigData) {
		t.Fatalf("overflow record after Update: %d bytes, %v", len(got), err)
	}
	if after.Writes-before.Writes != 2 {
		t.Errorf("two Updates counted %d writes", after.Writes-before.Writes)
	}
	if after.LiveBytes != before.LiveBytes || after.LiveObjects != before.LiveObjects {
		t.Errorf("Update moved LiveBytes %d -> %d, LiveObjects %d -> %d",
			before.LiveBytes, after.LiveBytes, before.LiveObjects, after.LiveObjects)
	}
}

// testRandomModel drives a random operation sequence against the manager and
// an in-memory model, checking full agreement at every step and at the end.
func testRandomModel(t *testing.T, m storage.Manager) {
	rng := rand.New(rand.NewSource(7))
	model := make(map[storage.OID][]byte)
	var live []storage.OID

	randData := func() []byte {
		var n int
		switch rng.Intn(10) {
		case 0:
			n = rng.Intn(20000) // overflow-sized
		case 1:
			n = 0
		default:
			n = rng.Intn(500)
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	begin(t, m)
	for step := 0; step < 3000; step++ {
		if step%100 == 99 {
			commit(t, m)
			begin(t, m)
		}
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // allocate
			data := randData()
			seg := storage.SegmentID(rng.Intn(int(storage.NumSegments)))
			var oid storage.OID
			var err error
			if len(live) > 0 && rng.Intn(2) == 0 {
				oid, err = m.AllocateNear(live[rng.Intn(len(live))], data)
				seg = oid.Segment()
			} else {
				oid, err = m.Allocate(seg, data)
			}
			if err != nil {
				t.Fatalf("step %d: Allocate: %v", step, err)
			}
			if _, dup := model[oid]; dup {
				t.Fatalf("step %d: duplicate OID %v", step, oid)
			}
			model[oid] = data
			live = append(live, oid)
		case op < 6: // write
			oid := live[rng.Intn(len(live))]
			data := randData()
			if err := m.Write(oid, data); err != nil {
				t.Fatalf("step %d: Write %v: %v", step, oid, err)
			}
			model[oid] = data
		case op < 7: // update in place: flip one byte
			oid := live[rng.Intn(len(live))]
			want := model[oid]
			if len(want) == 0 {
				continue
			}
			i, x := rng.Intn(len(want)), byte(rng.Intn(255)+1)
			if err := storage.Update(m, oid, func(b []byte) error {
				if !bytes.Equal(b, want) {
					return fmt.Errorf("fn saw %d bytes differing from the model's %d", len(b), len(want))
				}
				b[i] ^= x
				return nil
			}); err != nil {
				t.Fatalf("step %d: Update %v: %v", step, oid, err)
			}
			want[i] ^= x
		case op < 8: // free
			i := rng.Intn(len(live))
			oid := live[i]
			if err := m.Free(oid); err != nil {
				t.Fatalf("step %d: Free %v: %v", step, oid, err)
			}
			delete(model, oid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // read
			oid := live[rng.Intn(len(live))]
			got, err := m.Read(oid)
			if err != nil {
				t.Fatalf("step %d: Read %v: %v", step, oid, err)
			}
			if !bytes.Equal(got, model[oid]) {
				t.Fatalf("step %d: Read %v mismatch: got %d bytes, want %d", step, oid, len(got), len(model[oid]))
			}
		}
	}
	commit(t, m)

	for oid, want := range model {
		got, err := m.Read(oid)
		if err != nil {
			t.Fatalf("final Read %v: %v", oid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final Read %v mismatch", oid)
		}
	}
	st := m.Stats()
	if st.LiveObjects != uint64(len(model)) {
		t.Errorf("LiveObjects = %d, want %d", st.LiveObjects, len(model))
	}
	var wantBytes uint64
	for _, v := range model {
		wantBytes += uint64(len(v))
	}
	if st.LiveBytes != wantBytes {
		t.Errorf("LiveBytes = %d, want %d", st.LiveBytes, wantBytes)
	}
}
