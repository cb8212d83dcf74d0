package ostore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/storagetest"
)

func openTemp(t *testing.T, opts Options) storage.Manager {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "ostore.db")
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestConformanceFile(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return openTemp(t, Options{})
	})
}

func TestConformanceSmallPool(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return openTemp(t, Options{PoolPages: 20})
	})
}

func TestConformanceMemBacking(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		m, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	})
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ostore.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	for i := 0; i < 300; i++ {
		oid, err := m.Allocate(storage.SegMaterial, []byte(fmt.Sprintf("m-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := m.SetRoot(oids[42]); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	for i, oid := range oids {
		got, err := m2.Read(oid)
		if err != nil || string(got) != fmt.Sprintf("m-%d", i) {
			t.Fatalf("Read %v = %q, %v", oid, got, err)
		}
	}
	if root, _ := m2.Root(); root != oids[42] {
		t.Fatalf("Root = %v, want %v", root, oids[42])
	}
}

// TestRecovery simulates a crash after the redo log is written but before
// the database pages are updated: the data must reappear on reopen.
func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ostore.db")
	logPath := path + ".log"

	// Build a committed baseline database.
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Allocate(storage.SegMaterial, []byte("before crash"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRoot(oid); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a complete redo record that rewrites the object's page with a
	// recognisable image, simulating a crash between log force and page
	// write-back. We find the page by scanning the db file for the record.
	db, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pageOf := -1
	for p := 0; p*pagefile.PageSize < len(db); p++ {
		page := db[p*pagefile.PageSize : (p+1)*pagefile.PageSize]
		if idx := indexOf(page, []byte("before crash")); idx >= 0 {
			pageOf = p
			break
		}
	}
	if pageOf < 0 {
		t.Fatal("did not find record page in database file")
	}
	img := make([]byte, pagefile.PageSize)
	copy(img, db[pageOf*pagefile.PageSize:(pageOf+1)*pagefile.PageSize])
	copy(img[indexOf(img, []byte("before crash")):], []byte("after replay"))

	log := repl.EncodeCursor(1)
	log = append(log, repl.EncodeRecord(2, []repl.PageImage{{ID: pagefile.PageID(pageOf), Data: img}})...)
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	var info repl.RecoveryInfo
	m2, err := Open(Options{Path: path, Recovery: &info})
	if err != nil {
		t.Fatalf("reopen with log: %v", err)
	}
	defer m2.Close()
	got, err := m2.Read(oid)
	if err != nil || string(got) != "after replay" {
		t.Fatalf("after recovery Read = %q, %v; want %q", got, err, "after replay")
	}
	if info.CheckpointLSN != 1 || info.Replayed != 1 || info.NextLSN != 3 {
		t.Errorf("RecoveryInfo = %+v, want cursor 1, 1 replayed, next LSN 3", info)
	}
	// Recovery's checkpoint is a session boundary: the replayed record is
	// retired behind cursor 2 and the file physically holds nothing else.
	assertLogEmptied(t, logPath, 2)
}

// assertLogEmptied checks the state Open's recovery (and Close) must leave a
// log in: a cursor naming wantCursor, nothing replayable past it, and — the
// physical part, which in-session checkpoints no longer do — no byte beyond
// the cursor for a later session's restarted LSNs to collide with.
func assertLogEmptied(t *testing.T, logPath string, wantCursor uint64) {
	t.Helper()
	lf, err := repl.OpenFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	cursor, records, err := repl.ScanLog(lf)
	if err != nil || cursor != wantCursor || len(records) != 0 {
		t.Fatalf("log %s: cursor=%d records=%d err=%v, want cursor %d and nothing replayable",
			logPath, cursor, len(records), err, wantCursor)
	}
	if size, err := lf.Size(); err != nil || size != repl.CursorSize {
		t.Fatalf("log %s is %d bytes (err %v), want exactly the %d-byte cursor", logPath, size, err, repl.CursorSize)
	}
}

// TestIncompleteLogIgnored checks that a torn (incomplete) redo record is
// discarded rather than applied.
func TestIncompleteLogIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ostore.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Allocate(storage.SegMaterial, []byte("stable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A valid cursor, then a record cut off halfway through its page image.
	torn := repl.EncodeRecord(2, []repl.PageImage{{ID: 1, Data: bytes.Repeat([]byte{0xEE}, pagefile.PageSize)}})
	log := append(repl.EncodeCursor(1), torn[:len(torn)/2]...)
	if err := os.WriteFile(path+".log", log, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	got, err := m2.Read(oid)
	if err != nil || string(got) != "stable" {
		t.Fatalf("Read = %q, %v; want stable", got, err)
	}
}

// TestTornMiddleLogIgnored is the regression test for the torn-write
// false-apply (crashtest seed 115): a record whose head sector (count,
// first page id) and tail sector (commit magic) reached the disk while the
// middle was lost reads as complete to a magic-only check, but replaying it
// writes mostly-zero page images over good data. The CRC must reject it.
func TestTornMiddleLogIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ostore.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Allocate(storage.SegMaterial, []byte("stable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A well-formed record for page 0 (the superblock), then tear out the
	// middle: everything between the first and last 512-byte sectors becomes
	// zeros, exactly what a partially completed multi-sector write leaves.
	// The trailing magic lives in the final sector, so it survives the tear
	// and a magic-only check would wrongly accept the record.
	rec := repl.EncodeRecord(2, []repl.PageImage{{ID: 0, Data: bytes.Repeat([]byte{0xEE}, pagefile.PageSize)}})
	log := append(repl.EncodeCursor(1), rec...)
	tail := append([]byte(nil), log[len(log)-512:]...)
	for i := 512; i < len(log)-512; i++ {
		log[i] = 0
	}
	copy(log[len(log)-512:], tail)
	if err := os.WriteFile(path+".log", log, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen with torn log: %v", err)
	}
	defer m2.Close()
	got, err := m2.Read(oid)
	if err != nil || string(got) != "stable" {
		t.Fatalf("Read = %q, %v; want stable (torn record must be discarded)", got, err)
	}
	// The torn record was discarded, not replayed: the cursor stays at 1.
	assertLogEmptied(t, path+".log", 1)
}

// TestShortReadLogIgnored feeds recovery a log whose medium delivers fewer
// bytes than Size reports (a short read): only the delivered prefix may be
// validated, so the truncated record must be discarded, not mis-parsed.
func TestShortReadLogIgnored(t *testing.T) {
	backing := pagefile.NewMem()
	defer backing.Close()

	// A cursor plus a record that would be valid at full length.
	rec := append(repl.EncodeCursor(0),
		repl.EncodeRecord(1, []repl.PageImage{{ID: 0, Data: bytes.Repeat([]byte{0xEE}, pagefile.PageSize)}})...)

	log := &shortLog{data: rec, deliver: len(rec) / 2}
	if _, _, _, err := repl.OpenLog(log, backing, false, 0); err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	// Nothing may have been replayed: the store still has only its original
	// (zero) pages and no grow happened.
	if n := backing.NumPages(); n != 0 {
		t.Fatalf("backing grew to %d pages from a short-read log", n)
	}
	// Recovery ends a session: the undeliverable tail must be physically
	// discarded and a cursor written, so the next scan finds nothing.
	if !log.truncated {
		t.Fatal("short-read log was not truncated")
	}
	if cursor, ok := repl.DecodeCursor(log.written); !ok || cursor != 0 || log.writtenAt != 0 {
		t.Fatalf("recovery wrote %d bytes at %d (cursor %d, valid %v), want cursor 0 at offset 0",
			len(log.written), log.writtenAt, cursor, ok)
	}

	// Control: the same record fully delivered must replay.
	backing2 := pagefile.NewMem()
	defer backing2.Close()
	full := &shortLog{data: rec, deliver: len(rec)}
	_, info, _, err := repl.OpenLog(full, backing2, false, 0)
	if err != nil {
		t.Fatalf("OpenLog (full): %v", err)
	}
	if n := backing2.NumPages(); n != 1 {
		t.Fatalf("backing = %d pages after full replay, want 1", n)
	}
	if info.NextLSN != 2 {
		t.Fatalf("next LSN = %d after replaying record 1, want 2", info.NextLSN)
	}
}

// shortLog is a LogFile whose ReadAt delivers only the first deliver bytes,
// the shape ScanLog's n-handling exists for.
type shortLog struct {
	data      []byte
	deliver   int
	truncated bool
	written   []byte // the last write, which recovery makes its cursor
	writtenAt int64
}

func (s *shortLog) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(s.deliver) {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:s.deliver])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (s *shortLog) WriteAt(p []byte, off int64) (int, error) {
	s.written, s.writtenAt = append([]byte(nil), p...), off
	return len(p), nil
}
func (s *shortLog) Truncate(size int64) error { s.truncated = true; return nil }
func (s *shortLog) Sync() error               { return nil }
func (s *shortLog) Size() (int64, error)      { return int64(len(s.data)), nil }
func (s *shortLog) Close() error              { return nil }

// countingBacking wraps a Backing and counts Close calls.
type countingBacking struct {
	pagefile.Backing
	closes int
}

func (b *countingBacking) Close() error {
	b.closes++
	return b.Backing.Close()
}

// brokenLog fails every read, so recovery cannot proceed; Close calls are
// counted to catch descriptor leaks (and double closes) in Open's error path.
type brokenLog struct {
	closes int
}

func (l *brokenLog) ReadAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("injected log read failure")
}
func (l *brokenLog) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (l *brokenLog) Truncate(size int64) error                { return nil }
func (l *brokenLog) Sync() error                              { return nil }
func (l *brokenLog) Size() (int64, error)                     { return 16, nil }
func (l *brokenLog) Close() error                             { l.closes++; return nil }

// TestOpenRecoveryFailureClosesMedia: when recovery fails, Open must return
// the error and close both the backing and the log exactly once each —
// neither leaked nor double-closed.
func TestOpenRecoveryFailureClosesMedia(t *testing.T) {
	cb := &countingBacking{Backing: pagefile.NewMem()}
	bl := &brokenLog{}
	m, err := Open(Options{Backing: cb, Log: bl})
	if err == nil {
		m.Close()
		t.Fatal("Open with failing recovery: want error")
	}
	if cb.closes != 1 {
		t.Errorf("backing closed %d times, want exactly 1", cb.closes)
	}
	if bl.closes != 1 {
		t.Errorf("log closed %d times, want exactly 1", bl.closes)
	}
}

// TestBoundedPoolFaults: with a pool smaller than the working set, a scan
// larger than the pool must fault on re-scan; with a large pool it must not.
func TestBoundedPoolFaults(t *testing.T) {
	build := func(pool int) (storage.Manager, []storage.OID) {
		path := filepath.Join(t.TempDir(), "db")
		m, err := Open(Options{Path: path, PoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		var oids []storage.OID
		payload := make([]byte, 2000) // 4 records per page -> 100 pages
		for i := 0; i < 400; i++ {
			oid, err := m.Allocate(storage.SegHistory, payload)
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, oid)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		return m, oids
	}

	scanTwice := func(m storage.Manager, oids []storage.OID) (first, second uint64) {
		base := m.Stats().Faults
		for _, oid := range oids {
			if _, err := m.Read(oid); err != nil {
				t.Fatal(err)
			}
		}
		mid := m.Stats().Faults
		for _, oid := range oids {
			if _, err := m.Read(oid); err != nil {
				t.Fatal(err)
			}
		}
		return mid - base, m.Stats().Faults - mid
	}

	mSmall, oidsSmall := build(32)
	_, secondSmall := scanTwice(mSmall, oidsSmall)
	if secondSmall == 0 {
		t.Error("small pool: second scan should fault (working set exceeds pool)")
	}

	mBig, oidsBig := build(4096)
	_, secondBig := scanTwice(mBig, oidsBig)
	if secondBig != 0 {
		t.Errorf("large pool: second scan faulted %d times, want 0", secondBig)
	}
}

// TestAbandonedProcessKeepsCommits simulates a process that dies without
// Close: every committed transaction must be readable on reopen (commit
// writes pages to the database file before returning), even with the redo
// log gone, so nothing is replayed.
func TestAbandonedProcessKeepsCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abandoned.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	for txn := 0; txn < 5; txn++ {
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			oid, err := m.Allocate(storage.SegHistory, []byte(fmt.Sprintf("txn%d-rec%d", txn, i)))
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, oid)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the "process" is gone. (The open file handle is dropped.)
	m = nil
	if err := os.Remove(path + ".log"); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen after abandonment: %v", err)
	}
	defer m2.Close()
	for i, oid := range oids {
		want := fmt.Sprintf("txn%d-rec%d", i/20, i%20)
		got, err := m2.Read(oid)
		if err != nil || string(got) != want {
			t.Fatalf("record %d = %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestCheckpointBoundsReplay abandons a store mid-stream (no Close) and
// checks that reopen replays only the records since the last checkpoint —
// the bounded-recovery contract — rather than the whole history.
func TestCheckpointBoundsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	m, err := Open(Options{Path: path, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	for txn := 0; txn < 10; txn++ {
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		oid, err := m.Allocate(storage.SegHistory, []byte(fmt.Sprintf("txn%d", txn)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close. Store creation itself commits once (the
	// superblock), so 11 records were flushed; checkpoints landed at LSNs 4
	// and 8, leaving the cursor at 8 with records 9–11 in the log.
	m = nil

	var info repl.RecoveryInfo
	m2, err := Open(Options{Path: path, CheckpointEvery: 4, Recovery: &info})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if info.CheckpointLSN != 8 || info.Replayed != 3 || info.NextLSN != 12 {
		t.Errorf("RecoveryInfo = %+v, want cursor 8, 3 replayed, next LSN 12", info)
	}
	for i, oid := range oids {
		got, err := m2.Read(oid)
		if err != nil || string(got) != fmt.Sprintf("txn%d", i) {
			t.Fatalf("txn %d = %q, %v", i, got, err)
		}
	}
}

// TestShipperFeedsStandby pairs a primary with an in-process standby and
// checks every commit's record arrives before the commit returns, and that
// the promoted standby's media open as an equivalent store.
func TestShipperFeedsStandby(t *testing.T) {
	dir := t.TempDir()
	standbyPath := filepath.Join(dir, "follower.db")
	st, err := repl.OpenFileStandby(standbyPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Path: filepath.Join(dir, "primary.db"), Shipper: st})
	if err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	for txn := 0; txn < 6; txn++ {
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		oid, err := m.Allocate(storage.SegMaterial, []byte(fmt.Sprintf("ship%d", txn)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		// Store creation committed once before the first transaction, so the
		// standby runs one LSN ahead of the transaction count.
		if got := st.LastLSN(); got != uint64(txn+2) {
			t.Fatalf("standby LSN = %d after commit %d, want %d", got, txn, txn+2)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Promote and open a real store over the standby's media.
	if err := st.Promote(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(Options{Path: standbyPath})
	if err != nil {
		t.Fatalf("open promoted standby: %v", err)
	}
	defer f.Close()
	for i, oid := range oids {
		got, err := f.Read(oid)
		if err != nil || string(got) != fmt.Sprintf("ship%d", i) {
			t.Fatalf("promoted read %d = %q, %v", i, got, err)
		}
	}
}

// flakyShipper wraps an in-process standby and fails exactly one armed
// Ship, in either of the two transport-failure shapes: "ackLost" delivers
// the record before erroring (the standby applied it; only the ack died)
// and "dropped" errors without delivering. FollowerLSN is promoted from the
// embedded standby, so the primary can resolve the ambiguity the same way
// the wire shipper does.
type flakyShipper struct {
	*repl.Standby
	mu   sync.Mutex
	arm  string // "", "ackLost", "dropped"
	errs int
}

func (f *flakyShipper) Arm(mode string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arm = mode
}

func (f *flakyShipper) Ship(lsn uint64, record []byte) error {
	f.mu.Lock()
	mode := f.arm
	f.arm = ""
	if mode != "" {
		f.errs++
	}
	f.mu.Unlock()
	switch mode {
	case "ackLost":
		if err := f.Standby.Ship(lsn, record); err != nil {
			return err
		}
		return errors.New("flaky: ack lost")
	case "dropped":
		return errors.New("flaky: record dropped")
	}
	return f.Standby.Ship(lsn, record)
}

// TestShipFailureRecovery is the wedge regression: a commit whose record
// fails to ship must fail, but the NEXT commit must succeed — the burned
// LSN's bytes are redelivered (or recognized as already applied) ahead of
// the new record, never re-encoded under a reused LSN. Both failure shapes
// are exercised, each at the default checkpoint interval and at
// CheckpointEvery 1, where the next commit's checkpoint retires the failed
// one's record. That record is in the log and replays, so its pages must be
// in place before any checkpoint can retire it — the failed commit writes
// them back before reporting — and a crash image taken after the later
// commits serves the failed commit whole. Its record lands in a segment no
// later commit touches, so no later record carries its pages.
func TestShipFailureRecovery(t *testing.T) {
	for _, mode := range []string{"ackLost", "dropped"} {
		t.Run(mode, func(t *testing.T) {
			for _, every := range []int{0, 1} {
				t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
					shipFailureRecovery(t, mode, every)
				})
			}
		})
	}
}

func shipFailureRecovery(t *testing.T, mode string, every int) {
	dir := t.TempDir()
	standbyPath := filepath.Join(dir, "follower.db")
	st, err := repl.OpenFileStandby(standbyPath, 100)
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyShipper{Standby: st}
	primaryPath := filepath.Join(dir, "primary.db")
	m, err := Open(Options{Path: primaryPath, Shipper: fs, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	oids := map[string]storage.OID{}
	commit := func(payload string) error {
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		seg := storage.SegMaterial
		if payload == "b" {
			seg = storage.SegHistory
		}
		oid, err := m.Allocate(seg, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		oids[payload] = oid
		return m.Commit()
	}
	if err := commit("a"); err != nil {
		t.Fatalf("commit a: %v", err)
	}
	// Creation is LSN 1, commit a is LSN 2.
	if got := st.LastLSN(); got != 2 {
		t.Fatalf("standby LSN = %d, want 2", got)
	}

	fs.Arm(mode)
	if err := commit("b"); err == nil {
		t.Fatal("commit b succeeded despite ship failure")
	}
	// The follower may or may not hold record 3 now — that is the
	// ambiguity — but the primary must not be wedged.
	if err := commit("c"); err != nil {
		t.Fatalf("commit c after ship failure: %v (stream wedged)", err)
	}
	if got := st.LastLSN(); got != 4 {
		t.Fatalf("standby LSN after recovery = %d, want 4 (burned LSN 3 resolved, c is 4)", got)
	}
	if err := commit("d"); err != nil {
		t.Fatalf("commit d: %v", err)
	}
	if got := st.LastLSN(); got != 5 {
		t.Fatalf("standby LSN = %d, want 5", got)
	}

	img, err := Open(Options{Path: crashImage(t, primaryPath), CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("reopen primary crash image: %v", err)
	}
	defer img.Close()
	for _, want := range []string{"a", "b", "c", "d"} {
		got, err := img.Read(oids[want])
		if err != nil || string(got) != want {
			t.Fatalf("primary crash image read %q = %q, %v", want, got, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The promoted follower serves every payload, the failed commit's too:
	// its record reached the follower before the lost ack, or by redelivery
	// ahead of the next record.
	if err := st.Promote(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(Options{Path: standbyPath})
	if err != nil {
		t.Fatalf("open promoted standby: %v", err)
	}
	defer f.Close()
	for _, want := range []string{"a", "b", "c", "d"} {
		got, err := f.Read(oids[want])
		if err != nil || string(got) != want {
			t.Fatalf("promoted read %q = %q, %v", want, got, err)
		}
	}
}

func indexOf(hay, needle []byte) int {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if string(hay[i:i+len(needle)]) == string(needle) {
			return i
		}
	}
	return -1
}
