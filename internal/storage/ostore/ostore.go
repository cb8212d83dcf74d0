// Package ostore implements the ObjectStore-style storage manager: a
// serialized miss path that mediates all access to the database, a bounded
// client buffer pool, and a redo log that makes commits atomic.
//
// This is the "OStore" version in the paper's Section-10 table. The
// behaviours the benchmark stresses are reproduced:
//
//   - every cache miss passes through one serialized place that reads the
//     page and counts the fault (ObjectStore's page server "mediates all
//     access to the database"), while hits are served from the client cache;
//     the miss is a call in the faulting goroutine, not a hand-off to a
//     server goroutine, because the paper's quantity is the fault count, not
//     the IPC the real server cost;
//   - the buffer pool is bounded, so locality of reference governs the fault
//     rate as the database outgrows the pool;
//   - commits write a redo record (page images) to a log before updating the
//     database in place, and Open replays the complete records a crash left
//     behind, so a crash between the log write and the page write-back loses
//     nothing.
//
// Page locks are not modeled. Concurrency control lives above the pager —
// labbase's writer mutex, MVCC snapshots and the pagefile Store's mutex
// (DESIGN §9) — so a page-grain lock could never block, and nothing waits
// on one.
//
// Since the checkpoint/replication work (DESIGN §8) the log is an
// append-only sequence of LSN-numbered records behind a checkpoint cursor
// (the repl package's protocol): records retire in batches at periodic
// checkpoints, which bounds reopen replay to the delta since the last
// checkpoint and gives every commit a stable record that can be shipped to a
// warm standby (Options.Shipper) before it retires. A checkpoint rewrites the
// cursor in place and the next interval overwrites the retired records, so
// the log file is only ever truncated by Open and Close (see package repl).
package ostore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// DefaultPoolPages is the buffer-pool capacity used when Options leaves it 0.
const DefaultPoolPages = 512

// DefaultCheckpointEvery is the number of flushed commit groups between
// checkpoints when Options leaves CheckpointEvery 0: the redo log's default.
// Reopen replays at most this many records.
const DefaultCheckpointEvery = repl.DefaultCheckpointEvery

// LogFile is the redo-log medium: the repl package's, since the log runs
// its protocol. Open wraps an *os.File at Path+".log"; tests, the crashtest
// harness and the benchmark substitute their own through Options.Log.
type LogFile = repl.LogFile

// Options configures Open.
type Options struct {
	// Path is the database file. Empty means a volatile in-memory backing
	// (used by tests).
	Path string
	// Backing, if non-nil, is used instead of opening Path — the hook the
	// fault-injection harness threads its wrapped media through.
	Backing pagefile.Backing
	// Log, if non-nil, is used instead of opening the redo-log file
	// Path+".log" (no log, and no recovery, when Path is empty). Recovery
	// runs whenever a log is present, however it was supplied.
	Log LogFile
	// PoolPages bounds the client buffer pool (default DefaultPoolPages).
	PoolPages int
	// SyncLog fsyncs the log at each commit. Off by default: the benchmark
	// measures CPU and locality, not disk latency, and the paper's runs
	// were likewise not fsync-bound.
	SyncLog bool
	// CheckpointEvery is the number of flushed commit groups between
	// checkpoints (default DefaultCheckpointEvery). 1 retires every record
	// as soon as its pages are in place. Larger values amortize the
	// checkpoint sync and leave a longer (but still bounded) replay tail.
	CheckpointEvery int
	// Shipper, if non-nil, receives every redo record at its durability
	// point, before the commit is acknowledged and long before the record
	// can retire — the warm-standby feed. A Ship error fails the commit.
	// Shipping needs the log: Open refuses a Shipper without Path or Log.
	Shipper repl.Shipper
	// Recovery, if non-nil, is filled with what Open's recovery had to do
	// (checkpoint cursor found, records replayed, next LSN).
	Recovery *repl.RecoveryInfo
}

// Open opens or creates an ObjectStore-style store, replaying the redo log
// if an interrupted commit is found. On error every medium Open acquired
// (or was handed) is closed exactly once.
func Open(opts Options) (storage.Manager, error) {
	if opts.Shipper != nil && opts.Log == nil && opts.Path == "" {
		if opts.Backing != nil {
			opts.Backing.Close()
		}
		return nil, errors.New("ostore: a Shipper needs a redo log (Path or Log)")
	}
	pool := opts.PoolPages
	if pool <= 0 {
		pool = DefaultPoolPages
	}
	if pool < 16 {
		pool = 16 // room for the handful of simultaneously pinned pages
	}

	logFile := opts.Log
	if logFile == nil && opts.Path != "" {
		f, err := repl.OpenFile(opts.Path + ".log")
		if err != nil {
			return nil, fmt.Errorf("ostore: open log: %w", err)
		}
		logFile = f
	}
	backing := opts.Backing
	if backing == nil {
		if opts.Path == "" {
			backing = pagefile.NewMem()
		} else {
			fb, err := pagefile.OpenFile(opts.Path)
			if err != nil {
				if logFile != nil {
					logFile.Close()
				}
				return nil, fmt.Errorf("ostore: %w", err)
			}
			backing = fb
		}
	}
	p := &pager{backing: backing, shipper: opts.Shipper, pool: pagefile.NewPool(pool)}
	info := repl.RecoveryInfo{NextLSN: 1}
	if logFile != nil {
		var replayed []repl.Record
		var err error
		p.log, info, replayed, err = repl.OpenLog(logFile, backing, opts.SyncLog, opts.CheckpointEvery)
		if err != nil {
			backing.Close()
			logFile.Close()
			return nil, fmt.Errorf("ostore: recovery: %w", err)
		}
		if opts.Shipper != nil {
			// A replayed record reached its durability point here but the
			// crash may have cut it off before (or mid-) shipment, leaving
			// the follower behind while the stream would resume past it.
			// Queue the replayed records for redelivery ahead of the next
			// commit group; records the follower already holds are retired
			// there without retransmission (see repl.ShipQueue).
			for _, rec := range replayed {
				p.pending.Add(rec.LSN, repl.EncodeRecord(rec.LSN, rec.Pages))
			}
		}
	}
	if opts.Recovery != nil {
		*opts.Recovery = info
	}
	p.start()
	// ObjectStore-style compact page layout: records are packed exactly
	// (nil slack), which is why this manager's database files are smaller
	// than the texas manager's, as in the paper's table.
	store, err := pagefile.New("OStore", p, nil)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("ostore: %w", err)
	}
	return store, nil
}

// commitBatch is one sealed transaction on its way to the group-commit
// flusher: the image of every page it dirtied as it stood at seal time, so
// the flusher logs and writes back exactly the sealed images while the next
// transaction goes on writing the live frames. pages[i] is frames[i]'s
// image — the frame's own buffer until the frame's next write pin copies it
// away (see pagefile.Frame.Sealed), never written again before settle. The
// batch holds each of its frames resident until it is settled: until then
// the backing holds an older image, which a fault after an eviction would
// read back. err is set and done closed once the batch is settled.
type commitBatch struct {
	frames []*pagefile.Frame
	pages  []repl.PageImage
	done   chan struct{}
	err    error
}

// wait is a batch's durable wait: it blocks until the batch is durable —
// logged, forced when SyncLog is set, and written back in place — or has
// failed.
func (b *commitBatch) wait() error {
	<-b.done
	return b.err
}

// maxScratchPages bounds the buffers the pager keeps between commits. The
// flusher's record buffer holds a record of at most this many pages: a
// group that narrow is logged in one write from it, and a wider one streams
// through it in one write per maxScratchPages pages (repl.WriteRecord).
// Its page map holds as many entries, and at most this many page buffers
// that settled images and trimmed frames leave behind are kept as spares
// for the next copy-on-write or new frame. So what stays live between
// commits is at most one 16-page record buffer and 16 spare pages
// (256 KiB), however wide the widest commit of the session was.
const maxScratchPages = 16

// pager implements pagefile.Pager as an ObjectStore-style client cache whose
// misses Pin reads from the backing itself, under mu. Its one goroutine is
// the group-commit flusher.
type pager struct {
	mu      sync.Mutex
	backing pagefile.Backing
	pool    *pagefile.Pool
	closed  bool

	// queue holds the sealed batches the flusher has not taken yet, in seal
	// order; work (on mu) wakes the flusher when one arrives or the pager
	// closes. spare holds page buffers no frame or batch holds any more —
	// settled images, trimmed frames', a failed fault's — for the next
	// copy-on-write or new frame.
	queue []*commitBatch
	work  sync.Cond
	spare [][]byte

	// Log/shipping state, touched only by the flushLoop goroutine (plus
	// Open, and Close after it has waited for flushDone), so it needs no
	// locking.
	log     *repl.Log // nil without a redo log
	shipper repl.Shipper
	pending repl.ShipQueue          // burned LSNs the follower never acked
	scratch []byte                  // record buffer reused across flushes; at most maxScratchPages pages
	seen    map[pagefile.PageID]int // a group's page → index in its record, reused like scratch

	flushDone chan struct{} // closed when flushLoop exits
}

// start readies a pager whose media and policy fields are set and launches
// its flusher, the pager's one goroutine.
func (p *pager) start() {
	p.work.L = &p.mu
	p.flushDone = make(chan struct{})
	go p.flushLoop()
}

// Pin serves a hit from the pool. A miss is the page-server path: Pin reads
// the page into its victim's buffer itself, under mu, so every fault passes
// through this one serialized place that counts it, one at a time.
func (p *pager) Pin(id pagefile.PageID, mode pagefile.Mode) (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	if f := p.pool.Pin(id); f != nil {
		if mode == pagefile.ModeWrite && f.Sealed {
			// The image belongs to a batch the flusher has yet to write:
			// the writer gets a copy, the batch keeps the original.
			img := p.pageBufLocked()
			copy(img, f.Data)
			f.Data = img
			f.Sealed = false
		}
		return f, nil
	}
	f := p.newFrameLocked(id)
	if err := p.backing.ReadPage(id, f.Data); err != nil {
		p.recycleLocked(f.Data)
		return nil, fmt.Errorf("ostore: fault page %d: %w", id, err)
	}
	p.pool.Stats.Faults++
	p.pool.Add(f)
	return f, nil
}

// newFrameLocked readies a frame for page id, pinned once and referenced,
// whose buffer the caller fills. When the pool is full it takes over
// CLOCK's victim — the frame and its buffer — so a fault allocates
// nothing; otherwise (the pool is not full, or overshoots because nothing
// is evictable) it is a new frame on a spare buffer or, failing that, a
// new one. The victim's buffer is its own: an evictable frame holds no
// image a batch still has to write.
func (p *pager) newFrameLocked(id pagefile.PageID) *pagefile.Frame {
	if v := p.pool.Victim(noSteal); v != nil {
		return p.pool.Take(v, id)
	}
	return pagefile.NewFrame(id, p.pageBufLocked())
}

// noSteal keeps every dirty frame resident: a dirty page stays until its
// transaction is sealed, so the redo-only log suffices for atomicity, and a
// sealed one until its image is written back in place, which its batch's
// hold sees to.
func noSteal(f *pagefile.Frame) bool { return f.Dirty }

func (p *pager) Unpin(f *pagefile.Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pool.Unpin(f, dirty)
}

func (p *pager) AllocPage() (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	f := p.newFrameLocked(0)
	id, err := p.backing.Grow()
	if err != nil {
		p.recycleLocked(f.Data)
		return nil, fmt.Errorf("ostore: grow: %w", err)
	}
	clear(f.Data)
	f.ID = id
	f.Dirty = true
	p.pool.Add(f)
	return f, nil
}

func (p *pager) Begin() error { return nil }

// Commit seals the transaction: under mu it takes every dirty page's image
// into a batch, marks the frames clean but held, queues the batch for
// the group-commit flusher, and returns the batch's durable wait without
// waiting on it. The next transaction may write the frames at once: its
// first write pin of a sealed page copies the image (Pin), so the flusher
// only ever reads images nobody writes. A single committer, which waits out
// each commit, therefore copies nothing. Batches queue in seal order and
// the flusher takes every queued batch as one group, so commits sealed
// while a flush is in flight share the next one. With a single committer
// that waits out each commit before the next Begin, every group is one
// batch, and the protocol degrades to exactly the old one-record-per-commit
// behaviour — same log bytes, same page writes, same evictions — which
// keeps recovery and the simulated statistics byte-compatible.
func (p *pager) Commit() (func() error, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	var b *commitBatch
	for _, f := range p.pool.Frames() {
		if !f.Dirty {
			continue
		}
		if b == nil {
			b = &commitBatch{done: make(chan struct{})}
		}
		f.Dirty = false
		p.pool.Hold(f)
		f.Sealed = true
		b.frames = append(b.frames, f)
		b.pages = append(b.pages, repl.PageImage{ID: f.ID, Data: f.Data})
	}
	if b == nil {
		p.pool.Trim(noSteal, p.recycleLocked)
		return nil, nil
	}
	p.queue = append(p.queue, b)
	p.work.Signal()
	return b.wait, nil
}

// pageBufLocked returns a page buffer for a copy-on-write or a new frame: a
// spare when there is one. Its contents are whatever the buffer last held.
func (p *pager) pageBufLocked() []byte {
	if n := len(p.spare); n > 0 {
		buf := p.spare[n-1]
		p.spare = p.spare[:n-1]
		return buf
	}
	return make([]byte, pagefile.PageSize)
}

// recycleLocked keeps buf, which no frame or batch holds any more, as a
// spare while there are fewer than maxScratchPages of them.
func (p *pager) recycleLocked(buf []byte) {
	if len(p.spare) < maxScratchPages {
		p.spare = append(p.spare, buf)
	}
}

// flushLoop is the group-commit daemon. It takes every batch queued so far
// and flushes their union as a single redo record: one log write, one
// optional fsync, one pass of in-place page writes, and every ckptEvery-th
// time a checkpoint. Every batch in the group is then settled at once.
// Once the pager is closed it drains what is still queued — those batches'
// committers are waiting on them — and exits.
func (p *pager) flushLoop() {
	defer close(p.flushDone)
	for {
		group := p.nextGroup()
		if group == nil {
			return
		}
		placed, err := p.flushBatches(group)
		p.settle(group, placed, err)
	}
}

// nextGroup waits for sealed batches and takes all of them; nil means the
// pager is closed and nothing is left to flush.
func (p *pager) nextGroup() []*commitBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.work.Wait()
	}
	group := p.queue
	p.queue = nil
	return group
}

// settle ends a flushed group. Its frames lose a batch's hold each — a
// frame still on its sealed buffer owns it again, a buffer a write pin
// copied away becomes a spare — the pool trims back to capacity, and every
// batch learns the group's fate.
//
// A group that failed before its images were all in place (!placed) takes
// down with it every batch still queued: those were sealed on top of its
// images before the failure could be seen, and flushing them alone would
// make part of the failed group durable through whatever pages they share.
// Every frame of the failed batches is dirty again, so the next seal logs
// the union — the failed transactions and the new one — as one record: all
// of it becomes durable, or none of it.
func (p *pager) settle(group []*commitBatch, placed bool, err error) {
	p.mu.Lock()
	if !placed {
		group = append(group, p.queue...)
		p.queue = nil
	}
	for _, b := range group {
		for i, f := range b.frames {
			p.pool.Unpin(f, !placed)
			if img := b.pages[i].Data; &img[0] == &f.Data[0] {
				f.Sealed = false
			} else {
				p.recycleLocked(img)
			}
		}
	}
	// During a transaction no-steal lets the pool overshoot; once the
	// group is written the overshoot is released, its buffers to the spares.
	p.pool.Trim(noSteal, p.recycleLocked)
	more := len(p.queue) > 0
	p.mu.Unlock()
	for _, b := range group {
		b.err = err
		close(b.done)
	}
	if more {
		// The committers just woken are queued on this goroutine's
		// processor, and the next group's log write and fsync would hold
		// it: let them take their replies out first, or each waits out a
		// whole extra flush.
		runtime.Gosched()
	}
}

// flushBatches forms one redo record from the union of the batches' sealed
// images and applies it. Pages keep first-sealed order; a page appearing in
// several batches keeps the latest image — the same state replaying the
// batches in order would produce. The record is appended to the log under
// the next LSN, shipped to the standby (if any) once durable, applied in
// place, and eventually retired by a periodic checkpoint. placed reports
// whether every image reached its place in the backing, which is what
// settle needs to know about a failure.
func (p *pager) flushBatches(batches []*commitBatch) (placed bool, err error) {
	var order []repl.PageImage
	if p.seen == nil {
		p.seen = make(map[pagefile.PageID]int, maxScratchPages)
	}
	seen := p.seen
	clear(seen)
	for _, b := range batches {
		for _, img := range b.pages {
			if i, dup := seen[img.ID]; dup {
				order[i] = img // later batch supersedes the image
				continue
			}
			seen[img.ID] = len(order)
			order = append(order, img)
		}
	}
	if len(order) > maxScratchPages {
		p.seen = nil // a wide group's map dies with the flush
	}
	if len(order) == 0 {
		return true, nil
	}
	// Records whose earlier shipment was never acked must land on the
	// follower before this group's record: acking LSN n promises the
	// follower holds everything through n. A redelivery failure fails the
	// group before it burns a new LSN.
	if p.shipper != nil {
		if err := p.pending.Resolve(p.shipper); err != nil {
			return false, fmt.Errorf("ostore: %w", err)
		}
	}
	if p.log != nil {
		if err := p.log.Append(order, p.scratchFor(len(order))); err != nil {
			return false, fmt.Errorf("ostore: %w", err)
		}
		// The record is durable locally; it must reach the standby before any
		// client learns the commit succeeded. A Ship failure fails the whole
		// group — the record stays in the log, so the commit lands on reopen
		// even though its clients saw an error (the crash-inside-Commit
		// "either side" contract). Its LSN is burned: the exact bytes are
		// kept for redelivery ahead of the next group, so an LSN is never
		// reused for different contents. And because the record will replay,
		// its pages go in place before the failure is reported, so no later
		// checkpoint can retire it with them missing; it does not count
		// toward the interval. The shipper needs the record whole, which the
		// record buffer, done with the log write, assembles.
		if p.shipper != nil {
			lsn := p.log.LastLSN()
			rec := p.assembleRecord(lsn, order)
			if err := p.shipper.Ship(lsn, rec); err != nil {
				p.pending.Add(lsn, bytes.Clone(rec))
				if werr := p.writeBack(order); werr != nil {
					return false, werr
				}
				return true, fmt.Errorf("ostore: ship record %d: %w", lsn, err)
			}
		}
	}
	// Durability point passed: apply in place, then count the record toward
	// the checkpoint that retires it.
	if err := p.writeBack(order); err != nil {
		return false, err
	}
	if p.log != nil {
		if err := p.log.Applied(); err != nil {
			return true, fmt.Errorf("ostore: %w", err)
		}
	}
	return true, nil
}

// scratchFor returns the flusher's record buffer, grown to take a record of
// n pages, or of maxScratchPages pages when n is wider.
func (p *pager) scratchFor(n int) []byte {
	if need := repl.RecordSize(uint32(min(n, maxScratchPages))); int64(cap(p.scratch)) < need {
		p.scratch = make([]byte, 0, need)
	}
	return p.scratch[:0]
}

// assembleRecord encodes the group's record whole under lsn, for the
// shipper: in the flusher's record buffer when the group is narrow enough,
// in a buffer that dies with the flush when it is wider. The shipper is done
// with the bytes when it returns.
func (p *pager) assembleRecord(lsn uint64, order []repl.PageImage) []byte {
	buf := p.scratchFor(len(order))
	if need := repl.RecordSize(uint32(len(order))); int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	return repl.AppendRecord(buf, lsn, order)
}

// writeBack writes a group's images to their places in the backing.
func (p *pager) writeBack(order []repl.PageImage) error {
	for _, img := range order {
		if err := p.backing.WritePage(img.ID, img.Data); err != nil {
			return fmt.Errorf("ostore: commit write page %d: %w", img.ID, err)
		}
	}
	p.mu.Lock()
	p.pool.Stats.PageWrites += uint64(len(order))
	p.mu.Unlock()
	return nil
}

func (p *pager) Stats() pagefile.PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pool.Stats
}

func (p *pager) SizeBytes() uint64 { return p.backing.SizeBytes() }

func (p *pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	// Wait for the flusher to drain every batch sealed before Close — their
	// committers are waiting on them — and exit: flushBatches writes the log
	// and backing and owns the log's tail, so none of the teardown below may
	// overlap it. The wait must happen outside p.mu — the flusher takes p.mu
	// to settle.
	<-p.flushDone
	p.mu.Lock()
	var errs []error
	for _, f := range p.pool.Frames() {
		if f.Dirty {
			if err := p.backing.WritePage(f.ID, f.Data); err != nil {
				errs = append(errs, err)
			}
			p.pool.Stats.PageWrites++
		}
	}
	if err := p.backing.Sync(); err != nil {
		errs = append(errs, err)
	}
	if err := p.backing.Close(); err != nil {
		errs = append(errs, err)
	}
	if p.log != nil {
		// Final checkpoint: the backing was just synced, so every logged
		// record is retired and the next open replays nothing.
		if err := p.log.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	p.mu.Unlock()
	return errors.Join(errs...)
}
