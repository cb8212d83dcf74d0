package ostore

import (
	"bytes"
	"errors"
	"labflow/internal/fault/gate"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// crashImage copies a live store's page file and log to a fresh directory —
// the media as a process crash at this instant would leave them, since a
// crash keeps every completed write — and returns the copy's path.
func crashImage(t *testing.T, path string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "image.db")
	for _, suffix := range []string{"", ".log"} {
		b, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// parkCommit runs m.Commit with its flush parked in gate (wired into the
// log's Sync) and returns once it is parked.
func parkCommit(t *testing.T, m storage.Manager, gate *gate.Gate) (committed <-chan error, release func()) {
	t.Helper()
	entered, release := gate.Arm()
	done := make(chan error, 1)
	go func() { done <- m.Commit() }()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("Commit returned (%v) without reaching the gated sync", err)
	}
	return done, release
}

func begin(t *testing.T, m storage.Manager) {
	t.Helper()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
}

func mustAllocate(t *testing.T, m storage.Manager, seg storage.SegmentID, data []byte) storage.OID {
	t.Helper()
	oid, err := m.Allocate(seg, data)
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func mustRead(t *testing.T, m storage.Manager, oid storage.OID, want []byte) {
	t.Helper()
	got, err := m.Read(oid)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read(%v) = %d bytes, %v; want the %d bytes written", oid, len(got), err, len(want))
	}
}

// sealedPagesTxns are TestSealedPagesStayResident's three transactions:
// ten pages of two objects each, then forty and twenty of one object each.
// The k-th object written is all byte(k), so every page image the three
// transactions seal is the same whatever the pool does.
var sealedPagesTxns = []struct {
	seg     storage.SegmentID
	n, size int
}{{storage.SegHistory, 20, 3000}, {storage.SegIndex, 40, 6000}, {storage.SegIndex, 20, 6000}}

// putTxn writes transaction i of sealedPagesTxns into m, records what it
// wrote in shadow, and returns without committing.
func putTxn(t *testing.T, m storage.Manager, shadow map[storage.OID][]byte, i int) {
	t.Helper()
	txn := sealedPagesTxns[i]
	for j := 0; j < txn.n; j++ {
		data := bytes.Repeat([]byte{byte(len(shadow))}, txn.size)
		shadow[mustAllocate(t, m, txn.seg, data)] = data
	}
}

// loggedImages returns each record in log past its cursor as its page
// images by page.
func loggedImages(t *testing.T, log LogFile) []map[pagefile.PageID][]byte {
	t.Helper()
	_, records, err := repl.ScanLog(log)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]map[pagefile.PageID][]byte, len(records))
	for i, rec := range records {
		out[i] = map[pagefile.PageID][]byte{}
		for _, img := range rec.Pages {
			out[i][img.ID] = bytes.Clone(img.Data)
		}
	}
	return out
}

// TestSealedPagesStayResident puts a 16-page pool under pressure while a
// commit is parked in its log sync: the next transaction dirties 40 pages
// and seals them behind the parked flush, and a third dirties 20 more
// before the flush is released, so the pool must evict, and only clean
// pages whose images are written back may go. A fault or a new page takes
// over its victim's buffer, so a sealed page evicted early would not just
// fault back in stale from a backing that never saw it: its buffer, still
// the image its batch has to log and write back, would be overwritten.
// Every read, during the flush and after, must see the last image written,
// and each logged record must hold exactly the images its transaction
// sealed — the images the same transactions log when committed one at a
// time into a pool that never evicts.
func TestSealedPagesStayResident(t *testing.T) {
	reference := func() []map[pagefile.PageID][]byte {
		path := filepath.Join(t.TempDir(), "reference.db")
		lf, err := repl.OpenFile(path + ".log")
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{Path: path, Log: lf, PoolPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		shadow := map[storage.OID][]byte{}
		for i := range sealedPagesTxns {
			begin(t, m)
			putTxn(t, m, shadow, i)
			if err := m.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return loggedImages(t, lf)
	}()

	path := filepath.Join(t.TempDir(), "evict.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gate.Gate{}
	m, err := Open(Options{Path: path, Log: gatedLog{lf, gate}, SyncLog: true, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[storage.OID][]byte{}
	readAll := func(m storage.Manager) {
		t.Helper()
		for oid, want := range shadow {
			mustRead(t, m, oid, want)
		}
	}

	begin(t, m)
	putTxn(t, m, shadow, 0)
	committed, release := parkCommit(t, m, gate)
	begin(t, m)
	putTxn(t, m, shadow, 1)
	readAll(m)
	durable, err := storage.Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	begin(t, m)
	putTxn(t, m, shadow, 2) // new pages, while the second batch waits to be logged
	release()
	if err := <-committed; err != nil {
		t.Fatalf("parked commit: %v", err)
	}
	if err := durable(); err != nil {
		t.Fatalf("commit sealed behind it: %v", err)
	}
	if err := m.Commit(); err != nil {
		t.Fatalf("third commit: %v", err)
	}
	logged := loggedImages(t, lf)
	if len(logged) != len(reference) {
		t.Fatalf("log holds %d records; the same transactions committed one at a time log %d", len(logged), len(reference))
	}
	for i, want := range reference {
		if len(logged[i]) != len(want) {
			t.Errorf("record %d logs %d pages; the transaction sealed %d", i+1, len(logged[i]), len(want))
		}
		for id, img := range want {
			if got, ok := logged[i][id]; !ok || !bytes.Equal(got, img) {
				t.Errorf("record %d: page %d's logged image is not the image its transaction sealed (logged: %v)", i+1, id, ok)
			}
		}
	}
	readAll(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = Open(Options{Path: path, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	readAll(m)
}

// TestSealedImageIsNotTheLiveFrame: the flusher writes back the image a
// commit sealed, not the frame the next transaction is already rewriting.
// With every record retired at once (CheckpointEvery 1) the backing alone
// is what a crash leaves, so a crash image taken after the first commit is
// durable but before the second seals must hold the first commit's bytes.
func TestSealedImageIsNotTheLiveFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cow.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gate.Gate{}
	m, err := Open(Options{Path: path, Log: gatedLog{lf, gate}, SyncLog: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	begin(t, m)
	oid := mustAllocate(t, m, storage.SegMaterial, []byte("first"))
	committed, release := parkCommit(t, m, gate)
	begin(t, m)
	if err := m.Write(oid, []byte("second")); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-committed; err != nil {
		t.Fatalf("parked commit: %v", err)
	}
	img, err := Open(Options{Path: crashImage(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, img, oid, []byte("first"))
	img.Close()
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	mustRead(t, m, oid, []byte("second"))
}

// failingSyncLog parks Sync in a gate and then fails it once when armed.
type failingSyncLog struct {
	LogFile
	gate *gate.Gate
	fail atomic.Bool
}

func (l *failingSyncLog) Sync() error {
	l.gate.Pass()
	if l.fail.Swap(false) {
		return errors.New("injected log sync failure")
	}
	return l.LogFile.Sync()
}

// TestFailedFlushFailsSealedBehind pins the first failure rule. Commit A's
// log sync fails while commit B is sealed behind it: B was sealed on top of
// A's images before the failure could be seen, so it fails too, and the
// frames of both are dirty again — the next commit, C, logs the union of
// all three as one record. A crash right after the failure shows A whole or
// not at all, and never B; a crash after C shows all three.
func TestFailedFlushFailsSealedBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failed.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	log := &failingSyncLog{LogFile: lf, gate: &gate.Gate{}}
	m, err := Open(Options{Path: path, Log: log, SyncLog: true, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 3000) }

	begin(t, m)
	a1 := mustAllocate(t, m, storage.SegMaterial, payload('a'))
	a2 := mustAllocate(t, m, storage.SegHistory, payload('A'))
	log.fail.Store(true)
	committedA, release := parkCommit(t, m, log.gate)
	begin(t, m)
	b1 := mustAllocate(t, m, storage.SegIndex, payload('b'))
	durableB, err := storage.Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-committedA; err == nil {
		t.Fatal("commit A succeeded although its log sync failed")
	}
	if err := durableB(); err == nil {
		t.Fatal("commit B, sealed behind A's failed flush, succeeded")
	}

	img, err := Open(Options{Path: crashImage(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	_, errA1 := img.Read(a1)
	_, errA2 := img.Read(a2)
	if (errA1 == nil) != (errA2 == nil) {
		t.Errorf("crash after the failure shows part of commit A: a1 %v, a2 %v", errA1, errA2)
	}
	if errA1 == nil {
		mustRead(t, img, a1, payload('a'))
		mustRead(t, img, a2, payload('A'))
	}
	if got, err := img.Read(b1); err == nil {
		t.Errorf("crash after the failure shows commit B (%d bytes), which no record carried", len(got))
	}
	img.Close()

	begin(t, m)
	c1 := mustAllocate(t, m, storage.SegCatalog, payload('c'))
	if err := m.Commit(); err != nil {
		t.Fatalf("commit C: %v", err)
	}
	var info repl.RecoveryInfo
	img, err = Open(Options{Path: crashImage(t, path), Recovery: &info})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	// Store creation is LSN 1; A's record was overlaid by C's union, LSN 2.
	if info.Replayed != 2 || info.NextLSN != 3 {
		t.Errorf("RecoveryInfo = %+v, want creation plus one union record", info)
	}
	for oid, want := range map[storage.OID][]byte{a1: payload('a'), a2: payload('A'), b1: payload('b'), c1: payload('c')} {
		mustRead(t, img, oid, want)
	}
}
