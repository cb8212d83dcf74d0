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

// TestSealedPagesStayResident puts a 16-page pool under pressure while a
// commit is parked in its log sync: the next transaction dirties 40 pages,
// so the pool must evict, and only clean pages whose images are written
// back may go. A sealed page evicted before its write-back would fault back
// in from a backing that never saw it. Every read, during the flush and
// after, must see the last image written.
func TestSealedPagesStayResident(t *testing.T) {
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
	put := func(seg storage.SegmentID, n int, size int) {
		for i := 0; i < n; i++ {
			data := bytes.Repeat([]byte{byte(len(shadow))}, size)
			shadow[mustAllocate(t, m, seg, data)] = data
		}
	}
	readAll := func(m storage.Manager) {
		t.Helper()
		for oid, want := range shadow {
			mustRead(t, m, oid, want)
		}
	}

	begin(t, m)
	put(storage.SegHistory, 20, 3000) // ten pages, two records each
	committed, release := parkCommit(t, m, gate)
	begin(t, m)
	put(storage.SegIndex, 40, 6000) // forty more, one record each
	readAll(m)
	durable, err := storage.Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-committed; err != nil {
		t.Fatalf("parked commit: %v", err)
	}
	if err := durable(); err != nil {
		t.Fatalf("commit sealed behind it: %v", err)
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
