package ostore

import (
	"bytes"
	"errors"
	"labflow/internal/fault/gate"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// TestNoStealAndTrim verifies the pool policy: during a transaction dirty
// pages may push the pool past capacity (no-steal), and commit trims it back.
func TestNoStealAndTrim(t *testing.T) {
	m, err := Open(Options{Path: filepath.Join(t.TempDir(), "db"), PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	// Dirty far more pages than the pool holds inside one transaction.
	payload := bytes.Repeat([]byte("x"), 4000) // 2 records per page
	for i := 0; i < 200; i++ {
		if _, err := m.Allocate(storage.SegHistory, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// All dirty pages were written exactly once at commit.
	if st.PageWrites < 100 {
		t.Errorf("PageWrites = %d, want >= 100 (about one per data page)", st.PageWrites)
	}
	// Fresh pages never fault; at most the clean superblock page can be
	// evicted mid-transaction and faulted back at commit.
	if st.Faults > 2 {
		t.Errorf("Faults during build = %d, want <= 2 (all data pages were fresh)", st.Faults)
	}
}

// TestLockTableLifecycle checks strict 2PL bookkeeping: locks accumulate
// during a transaction and are all released at commit.
func TestLockTableLifecycle(t *testing.T) {
	mgr, err := Open(Options{Path: filepath.Join(t.TempDir(), "db")})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// Reach inside: the manager is a *pagefile.Store over our pager; we
	// re-open the internals through the exported API only, so instead we
	// check observable behaviour: reads outside transactions do not retain
	// locks that would block later writes.
	if err := mgr.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := mgr.Allocate(storage.SegMaterial, []byte("locked"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := mgr.Read(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Write(oid, []byte("relocked")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := mgr.Read(oid)
	if err != nil || string(got) != "relocked" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

// TestSyncLogOption exercises the fsync-at-commit path.
func TestSyncLogOption(t *testing.T) {
	m, err := Open(Options{Path: filepath.Join(t.TempDir(), "db"), SyncLog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(storage.SegCatalog, []byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatalf("commit with SyncLog: %v", err)
	}
}

// TestEvictionAccounting fills the pool with clean pages and confirms CLOCK
// evictions happen (and are counted) once capacity is exceeded.
func TestEvictionAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	m, err := Open(Options{Path: path, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("e"), 4000)
	var oids []storage.OID
	for i := 0; i < 100; i++ {
		oid, err := m.Allocate(storage.SegHistory, payload)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// Scan everything twice: with 50+ data pages and a 16-page pool the
	// second pass must fault again (pages were evicted in between).
	for pass := 0; pass < 2; pass++ {
		for _, oid := range oids {
			if _, err := m2.Read(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m2.Stats()
	if st.Faults < 60 {
		t.Errorf("Faults = %d, want >= 60 across two passes with a tiny pool", st.Faults)
	}
}

// TestPagefileStoreSlackless confirms ostore reserves no allocation slack:
// identical records consume about their own size (plus slot overhead).
func TestPagefileStoreSlackless(t *testing.T) {
	m, err := Open(Options{Path: filepath.Join(t.TempDir(), "db")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	// 530-byte records: exact-fit packing admits 15 per page
	// (15 * (530+6) = 8040 <= 8184); a power-of-two heap would round each
	// to 1024 and fit only 7.
	payload := make([]byte, 530)
	for i := 0; i < 150; i++ {
		if _, err := m.Allocate(storage.SegHistory, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// 150 records at exact fit: about 10 data pages (+ tables and
	// superblock). Allow generous overhead but rule out heap rounding.
	maxPages := uint64(18)
	if st.SizeBytes > maxPages*pagefile.PageSize {
		t.Errorf("size = %d bytes (> %d pages); exact-fit packing expected", st.SizeBytes, maxPages)
	}
}

// newWhiteboxPager builds a bare pager (mem backing, optional log file) with
// its server and flusher goroutines running, bypassing the object layer so
// tests can drive the group-commit protocol directly.
func newWhiteboxPager(t *testing.T, logPath string) *pager {
	t.Helper()
	var log LogFile
	if logPath != "" {
		f, err := repl.OpenFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		log = f
	}
	p := &pager{
		backing:   pagefile.NewMem(),
		log:       log,
		nextLSN:   1,
		ckptEvery: 1, // checkpoint every flush: every record retires at once
		capacity:  64,
	}
	p.start()
	t.Cleanup(func() { p.Close() })
	return p
}

// batchOf seals frames into a batch the way Commit does — each page's image
// copied as it stands — without queueing it, for tests that hand batches to
// the flusher's machinery themselves.
func batchOf(frs ...*frame) *commitBatch {
	b := &commitBatch{done: make(chan struct{})}
	for _, fr := range frs {
		b.frames = append(b.frames, fr)
		b.pages = append(b.pages, repl.PageImage{ID: fr.pf.ID, Data: bytes.Clone(fr.pf.Data)})
	}
	return b
}

// TestGroupCommitCoalesce drives flushBatches directly with overlapping
// batches and checks the coalescing rules: one write-back per unique page,
// later batches superseding earlier images, log retired afterwards.
func TestGroupCommitCoalesce(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "wal")
	p := newWhiteboxPager(t, logPath)

	mkFrame := func(fill byte) *frame {
		f, err := p.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			f.Data[i] = fill
		}
		p.Unpin(f, true)
		return f.Priv.(*frame)
	}
	fa, fb, fc := mkFrame(0xAA), mkFrame(0xBB), mkFrame(0xCC)

	// Batch 2 re-dirties fa's page with a newer image after batch 1 sealed
	// the old one: the later image must win, and the dedupe keeps the page
	// from being logged or written twice.
	b1 := batchOf(fa, fb)
	for i := range fa.pf.Data {
		fa.pf.Data[i] = 0xAD
	}
	b2 := batchOf(fa, fc)
	before := p.Stats().PageWrites
	if _, err := p.flushBatches([]*commitBatch{b1, b2}); err != nil {
		t.Fatalf("flushBatches: %v", err)
	}
	if got := p.Stats().PageWrites - before; got != 3 {
		t.Errorf("PageWrites = %d, want 3 (one per unique page)", got)
	}
	buf := make([]byte, pagefile.PageSize)
	for _, want := range []struct {
		fr   *frame
		fill byte
	}{{fa, 0xAD}, {fb, 0xBB}, {fc, 0xCC}} {
		if err := p.backing.ReadPage(want.fr.pf.ID, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want.fill || buf[pagefile.PageSize-1] != want.fill {
			t.Errorf("page %d = %#x..%#x, want fill %#x",
				want.fr.pf.ID, buf[0], buf[pagefile.PageSize-1], want.fill)
		}
	}
	// One record (LSN 1) was logged and, at ckptEvery 1, retired at once.
	assertLogRetired(t, p, 1, repl.RecordSize(3))
}

// assertLogRetired checks what "checkpointed" means now that a checkpoint
// recycles the log instead of truncating it: the cursor names the last
// flushed LSN, nothing past it is replayable, the pager's tail is back at
// the cursor, and the file is no longer than the cursor plus the widest
// interval this session wrote (here one record, since ckptEvery is 1).
func assertLogRetired(t *testing.T, p *pager, wantCursor uint64, widestInterval int64) {
	t.Helper()
	cursor, records, err := repl.ScanLog(p.log)
	if err != nil {
		t.Fatalf("ScanLog: %v", err)
	}
	if cursor != wantCursor || len(records) != 0 {
		t.Errorf("log after checkpoint: cursor %d with %d replayable records, want cursor %d and none",
			cursor, len(records), wantCursor)
	}
	if p.logEnd != repl.CursorSize {
		t.Errorf("logEnd = %d after checkpoint, want %d (the next record must overlay the retired ones)",
			p.logEnd, repl.CursorSize)
	}
	if size, err := p.log.Size(); err != nil || size > repl.CursorSize+widestInterval {
		t.Errorf("log is %d bytes (err %v), want at most cursor + widest interval = %d",
			size, err, repl.CursorSize+widestInterval)
	}
}

// TestGroupCommitConcurrent overlaps many committers on one flusher. Frames
// are built serially (the object layer serializes transaction bodies in real
// use — a frame's owner writes it under pin before anyone may log it), then
// disjoint batches are enqueued concurrently so batch formation, coalescing
// and the shared durability point all run under the race detector.
func TestGroupCommitConcurrent(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "wal")
	p := newWhiteboxPager(t, logPath)

	const workers = 8
	const perWorker = 25
	frames := make([][]*frame, workers)
	for w := 0; w < workers; w++ {
		for r := 0; r < perWorker; r++ {
			f, err := p.AllocPage()
			if err != nil {
				t.Fatal(err)
			}
			for i := range f.Data {
				f.Data[i] = byte(w)
			}
			p.Unpin(f, true)
			frames[w] = append(frames[w], f.Priv.(*frame))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Several small batches per worker, racing the other workers
			// into the flusher's drain loop.
			for lo := 0; lo < perWorker; lo += 5 {
				b := batchOf(frames[w][lo : lo+5]...)
				p.mu.Lock()
				for _, fr := range b.frames {
					fr.unwritten++
				}
				p.queue = append(p.queue, b)
				p.work.Signal()
				p.mu.Unlock()
				if err := b.wait(); err != nil {
					t.Errorf("worker %d batch: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every batch must be durable in the backing store with the image its
	// owner wrote, exactly one write-back per page.
	if got := p.Stats().PageWrites; got != workers*perWorker {
		t.Errorf("PageWrites = %d, want %d", got, workers*perWorker)
	}
	buf := make([]byte, pagefile.PageSize)
	for w, fs := range frames {
		for _, fr := range fs {
			if err := p.backing.ReadPage(fr.pf.ID, buf); err != nil {
				t.Fatalf("read page %d: %v", fr.pf.ID, err)
			}
			if buf[0] != byte(w) || buf[pagefile.PageSize-1] != byte(w) {
				t.Fatalf("page %d: got fill %#x..%#x, want %#x",
					fr.pf.ID, buf[0], buf[pagefile.PageSize-1], byte(w))
			}
		}
	}
	// Every group retired as it flushed. How many groups formed depends on
	// the interleaving, so the cursor is read back from the pager; a group
	// holds at most every worker's batch of 5.
	assertLogRetired(t, p, p.nextLSN-1, repl.RecordSize(workers*5))
}

// gatedWAL parks log writes in a gate.Gate, so a test can hold a
// group flush open at a known point, and reports a write that arrives after
// the log was closed.
type gatedWAL struct {
	LogFile
	t      *testing.T
	gate   *gate.Gate
	closed atomic.Bool
}

func (l *gatedWAL) WriteAt(p []byte, off int64) (int, error) {
	l.gate.Pass()
	if l.closed.Load() {
		l.t.Error("log written after Close tore it down: teardown overlapped an in-flight flush")
	}
	return l.LogFile.WriteAt(p, off)
}

func (l *gatedWAL) Close() error {
	l.closed.Store(true)
	return l.LogFile.Close()
}

// TestCloseDrainsInFlightFlush lands Close while flushBatches is mid-flush.
// Close must wait for the in-flight group flush to drain before tearing down
// the log and backing — under the race detector this catches any overlap
// between flushBatches and teardown — and late committers get
// ErrPagerClosed, never a write into closed media.
func TestCloseDrainsInFlightFlush(t *testing.T) {
	f, err := repl.OpenFile(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gate.Gate{}
	p := &pager{
		backing:   pagefile.NewMem(),
		log:       &gatedWAL{LogFile: f, t: t, gate: gate},
		nextLSN:   1,
		ckptEvery: 1,
		capacity:  64,
	}
	p.start()

	// One transaction at a time, and none once Close is on its way, as the
	// object layer above a real pager guarantees: Commit sweeps every dirty
	// frame in the pool into its batch and Close writes back whatever is
	// still dirty, so a frame a worker was still filling would be read
	// mid-write. What must overlap is Close and a flush.
	var txn sync.Mutex
	var stop atomic.Bool
	one := func(w int) error {
		txn.Lock()
		defer txn.Unlock()
		if stop.Load() {
			return pagefile.ErrPagerClosed
		}
		fr, err := p.AllocPage()
		if err != nil {
			return err
		}
		for i := range fr.Data {
			fr.Data[i] = byte(w)
		}
		p.Unpin(fr, true)
		durable, err := p.Commit()
		if err != nil {
			return err
		}
		return durable()
	}
	inFlush, release := gate.Arm()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for one(w) == nil {
			}
		}(w)
	}
	<-inFlush // the first commit's flush is parked in its log write
	stop.Store(true)
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	<-p.done // Close is under way; it may not touch the media until the flush drains
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// failingCursorLog refuses the first fails cursor writes.
type failingCursorLog struct {
	LogFile
	fails int
}

func (l *failingCursorLog) WriteAt(p []byte, off int64) (int, error) {
	if off == 0 && l.fails > 0 {
		l.fails--
		return 0, errors.New("injected cursor write failure")
	}
	return l.LogFile.WriteAt(p, off)
}

// TestFailedCheckpointKeepsTail: the tail moves back only once the new
// cursor is down. While checkpoints fail, the old cursor still vouches for
// every record since it, so the next record must be appended behind them —
// overlaying the first would leave a log that replays nothing, or worse, a
// prefix. When a checkpoint finally succeeds the whole run retires at once.
func TestFailedCheckpointKeepsTail(t *testing.T) {
	p := newWhiteboxPager(t, filepath.Join(t.TempDir(), "wal"))
	if err := repl.ResetLog(p.log, 0, false); err != nil { // what Open would have done
		t.Fatal(err)
	}
	p.log = &failingCursorLog{LogFile: p.log, fails: 2}
	flush := func(fill byte) error {
		f, err := p.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			f.Data[i] = fill
		}
		p.Unpin(f, true)
		_, err = p.flushBatches([]*commitBatch{batchOf(f.Priv.(*frame))})
		return err
	}
	for lsn := uint64(1); lsn <= 2; lsn++ {
		if err := flush(byte(lsn)); err == nil {
			t.Fatalf("flush %d: the failed checkpoint went unreported", lsn)
		}
		cursor, records, err := repl.ScanLog(p.log)
		if err != nil || cursor != 0 || uint64(len(records)) != lsn {
			t.Fatalf("after failed checkpoint %d: cursor=%d records=%d err=%v, want cursor 0 and every record since it",
				lsn, cursor, len(records), err)
		}
	}
	if err := flush(3); err != nil {
		t.Fatalf("flush 3: %v", err)
	}
	assertLogRetired(t, p, 3, 3*repl.RecordSize(1))
}

// TestScratchBounded: the flusher reuses one record buffer for ordinary
// groups and never keeps one wider than maxScratchPages, so a single wide
// commit cannot pin its size on the heap.
func TestScratchBounded(t *testing.T) {
	p := newWhiteboxPager(t, filepath.Join(t.TempDir(), "wal"))
	flush := func(pages int) {
		t.Helper()
		var frs []*frame
		for i := 0; i < pages; i++ {
			f, err := p.AllocPage()
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f, true)
			frs = append(frs, f.Priv.(*frame))
		}
		if _, err := p.flushBatches([]*commitBatch{batchOf(frs...)}); err != nil {
			t.Fatal(err)
		}
	}
	flush(maxScratchPages)
	kept := &p.scratch[:1][0]
	flush(3)
	if &p.scratch[:1][0] != kept {
		t.Error("a narrower group did not reuse the retained record buffer")
	}
	flush(3 * maxScratchPages)
	if got, limit := int64(cap(p.scratch)), repl.RecordSize(maxScratchPages); got > limit {
		t.Errorf("retained buffer is %d bytes after a wide group, over the %d-byte bound", got, limit)
	}
	if &p.scratch[:1][0] != kept {
		t.Error("a wide group displaced the retained record buffer")
	}
}
