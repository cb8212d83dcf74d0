package ostore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"labflow/internal/fault/gate"
	"os"
	"path/filepath"
	"testing"

	"labflow/internal/fault"
	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/storagetest"
)

// commitOne runs one transaction allocating a single record and returns its
// OID with the Commit error, so a test can let the last Commit die.
func commitOne(t *testing.T, m storage.Manager, payload string) (storage.OID, error) {
	t.Helper()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Allocate(storage.SegMaterial, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return oid, m.Commit()
}

// TestTornCursorRewrite tears the in-place cursor rewrite of an in-session
// checkpoint in every tear mode. Whatever lands — nothing, a prefix that
// stops inside the unchanged magic, a prefix that reaches the LSN — recovery
// must serve every transaction through the one whose commit was
// checkpointing (its pages were synced into the backing before the cursor
// was touched), either by replaying the whole retired interval behind the
// intact old cursor or by trusting the backing behind an invalid one; and
// the reopen must leave the log physically empty, because in the second case
// its LSNs start over.
func TestTornCursorRewrite(t *testing.T) {
	const every = 3
	cases := []struct {
		name string
		plan fault.Plan
		// Recovery's view: the old cursor (1 retired interval replayed) or
		// no cursor at all.
		wantCursor   uint64
		wantReplayed int
	}{
		{"lost", fault.Plan{Tear: fault.TearNone}, every, every},
		{"head-inside-magic", fault.Plan{Tear: fault.TearHead, TearFrac24: 1 << 22}, every, every}, // 5 of 20 bytes
		{"head-into-lsn", fault.Plan{Tear: fault.TearHead, TearFrac24: 1 << 23}, 0, 0},             // 10 of 20 bytes
		{"head-into-crc", fault.Plan{Tear: fault.TearHead, TearFrac24: 15 << 20}, 0, 0},            // 18 of 20 bytes
		{"middle-lost", fault.Plan{Tear: fault.TearMiddleLost, TearFrac24: 1 << 23}, 0, 0},         // degrades to a head tear under two sectors
	}
	// session runs creation (LSN 1) plus 2*every-1 transactions, so the
	// second checkpoint — the first to rewrite the cursor of a log that
	// still holds an interval — fires inside the last Commit.
	// It returns the log ops seen before Close added its own.
	session := func(t *testing.T, path string, in *fault.Injector) (oids []storage.OID, ops uint64, lastErr error) {
		fb, err := pagefile.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := os.OpenFile(path+".log", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// Only the log is injected, so op numbers count log I/O alone.
		m, err := Open(Options{Backing: fb, Log: fault.WrapFile(lf, in), CheckpointEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < 2*every-1; i++ {
			oid, err := commitOne(t, m, fmt.Sprintf("txn-%d", i))
			oids = append(oids, oid)
			if lastErr = err; err != nil {
				if i != 2*every-2 {
					t.Fatalf("commit %d died early: %v", i, err)
				}
				break
			}
		}
		return oids, in.Ops(), lastErr
	}

	// Count pass: with an unsynced log, the cursor rewrite is the last log
	// op the final Commit issues.
	counted := filepath.Join(t.TempDir(), "count.db")
	_, cursorOp, err := session(t, counted, fault.NewInjector(fault.Plan{}))
	if err != nil {
		t.Fatalf("fault-free session: %v", err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.db")
			plan := tc.plan
			plan.CrashOp = cursorOp
			in := fault.NewInjector(plan)
			oids, _, err := session(t, path, in)
			if err == nil {
				t.Fatal("the commit whose checkpoint was cut short reported success")
			}
			if w, ok := in.CrashedLogWrite(); !ok || w.Off != 0 || w.Len != repl.CursorSize || w.FileSize <= repl.CursorSize {
				t.Fatalf("crash op %d hit %+v (log write: %v), not an in-place cursor rewrite", cursorOp, w, ok)
			}

			var info repl.RecoveryInfo
			m, err := Open(Options{Path: path, CheckpointEvery: every, Recovery: &info})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if info.CheckpointLSN != tc.wantCursor || info.Replayed != tc.wantReplayed {
				t.Errorf("RecoveryInfo = %+v, want cursor %d and %d replayed", info, tc.wantCursor, tc.wantReplayed)
			}
			for i, oid := range oids {
				got, err := m.Read(oid)
				if err != nil || string(got) != fmt.Sprintf("txn-%d", i) {
					t.Errorf("txn %d = %q, %v", i, got, err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			assertLogEmptied(t, path+".log", info.NextLSN-1)
		})
	}
}

// meterLog watches the log's own I/O for the retained-length bound: every
// cursor rewrite ends an interval, and right after it the file may be no
// longer than the cursor plus the widest interval written so far.
type meterLog struct {
	LogFile
	t                *testing.T
	interval, widest int64
	checkpoints      int
}

func (l *meterLog) WriteAt(p []byte, off int64) (int, error) {
	n, err := l.LogFile.WriteAt(p, off)
	if off != 0 {
		l.interval += int64(len(p))
		return n, err
	}
	l.widest = max(l.widest, l.interval)
	l.interval = 0
	l.checkpoints++
	if size, serr := l.LogFile.Size(); serr != nil || size > repl.CursorSize+l.widest {
		l.t.Errorf("after checkpoint %d the log is %d bytes (err %v), over cursor + widest interval = %d",
			l.checkpoints, size, serr, repl.CursorSize+l.widest)
	}
	return n, err
}

// TestLogLengthBounded: the recycled log never outgrows the cursor plus the
// widest checkpoint interval this session wrote — the tail really does move
// back — and a clean Close, and the Open after it, return the file to a bare
// cursor.
func TestLogLengthBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bounded.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	meter := &meterLog{LogFile: lf, t: t}
	m, err := Open(Options{Path: path, Log: meter, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("w"), 4000)
	for txn := 0; txn < 40; txn++ {
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		// Transactions of very different widths, so intervals differ and
		// a narrow one follows a wide one.
		for i := 0; i < 1+(txn*7)%23; i++ {
			if _, err := m.Allocate(storage.SegHistory, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if meter.checkpoints < 10 {
		t.Fatalf("only %d cursor writes seen; the session should have checkpointed 10 times", meter.checkpoints)
	}
	if size, _ := lf.Size(); size <= repl.CursorSize {
		t.Fatalf("log is %d bytes mid-session: in-session checkpoints are not expected to truncate", size)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	assertLogEmptied(t, path+".log", 41)
	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	assertLogEmptied(t, path+".log", 41)
}

func gunzipTo(t *testing.T, src, dst string) []byte {
	t.Helper()
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestParentLogOpens holds the on-disk format still. testdata/parent_log.gz
// is a redo log written by the commit before the log was recycled in place
// (PR 12, 2c95cd5): Open{CheckpointEvery: 4}, store creation plus six
// one-record transactions "golden-0".."golden-5" (the last also the root),
// abandoned without Close — cursor 4, records 5, 6 and 7.
// parent_pages_at_cursor.gz is that store's page file as it stood when LSN 4
// checkpointed, so the last three transactions exist only in the log.
func TestParentLogOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.db")
	gunzipTo(t, filepath.Join("testdata", "parent_pages_at_cursor.gz"), path)
	golden := gunzipTo(t, filepath.Join("testdata", "parent_log.gz"), path+".log")

	// The bytes mean what they meant, and today's encoders reproduce them.
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	cursor, records, err := repl.ScanLog(lf)
	lf.Close()
	if err != nil || cursor != 4 || len(records) != 3 {
		t.Fatalf("golden log scans as cursor=%d records=%d err=%v, want 4, 3", cursor, len(records), err)
	}
	again := repl.EncodeCursor(cursor)
	for _, rec := range records {
		again = repl.AppendRecord(again, rec.LSN, rec.Pages)
	}
	if !bytes.Equal(again, golden) {
		t.Fatal("re-encoding the golden log's cursor and records does not reproduce its bytes: the format moved")
	}

	var info repl.RecoveryInfo
	m, err := Open(Options{Path: path, CheckpointEvery: 4, Recovery: &info})
	if err != nil {
		t.Fatalf("open over the parent's files: %v", err)
	}
	defer m.Close()
	if info.CheckpointLSN != 4 || info.Replayed != 3 || info.NextLSN != 8 {
		t.Errorf("RecoveryInfo = %+v, want cursor 4, 3 replayed, next LSN 8", info)
	}
	for i := 0; i < 6; i++ {
		oid := storage.MakeOID(storage.SegMaterial, uint64(i+1))
		got, err := m.Read(oid)
		if err != nil || string(got) != fmt.Sprintf("golden-%d", i) {
			t.Errorf("Read(%v) = %q, %v; want golden-%d", oid, got, err, i)
		}
	}
	if root, err := m.Root(); err != nil || root != storage.MakeOID(storage.SegMaterial, 6) {
		t.Errorf("Root = %v, %v", root, err)
	}
}

// gatedLog parks Sync in a gate.Gate.
type gatedLog struct {
	LogFile
	gate *gate.Gate
}

func (l gatedLog) Sync() error {
	l.gate.Pass()
	return l.LogFile.Sync()
}

// TestStalledFlushBlocksOnlyWriters parks a commit inside the log's fsync:
// reads of committed and of just-written objects, Root and Stats return
// while it is parked, and so does the next writer's Begin — a second
// transaction writes and seals behind the flush. Only durable waits wait:
// the second commit's until the first is released (the two return in seal
// order), and Close for both. The default checkpoint interval keeps every
// checkpoint out of the parked flushes.
func TestStalledFlushBlocksOnlyWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stalled.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gate.Gate{}
	m, err := Open(Options{Path: path, Log: gatedLog{lf, gate}, SyncLog: true, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	storagetest.StalledCommit(t, m, gate, storagetest.Pipelined, func() storage.Manager {
		m2, err := Open(Options{Path: path, SyncLog: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return m2
	})
}
