// Package ostore implements the ObjectStore-style storage manager: a page
// server that mediates all access to the database, lock-based concurrency
// control at page grain, a bounded client buffer pool, and a redo log that
// makes commits atomic.
//
// This is the "OStore" version in the paper's Section-10 table. The
// behaviours the benchmark stresses are reproduced:
//
//   - cache misses go through a server goroutine (ObjectStore's page server
//     "mediates all access to the database"), while hits are served from the
//     client cache;
//   - page locks are acquired as pages are touched and released at commit
//     (strict two-phase locking);
//   - the buffer pool is bounded, so locality of reference governs the fault
//     rate as the database outgrows the pool;
//   - commits write a redo record (page images) to a log before updating the
//     database in place, and Open replays the complete records a crash left
//     behind, so a crash between the log write and the page write-back loses
//     nothing.
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
	"sync"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// DefaultPoolPages is the buffer-pool capacity used when Options leaves it 0.
const DefaultPoolPages = 512

// DefaultCheckpointEvery is the number of flushed commit groups between
// checkpoints when Options leaves CheckpointEvery 0. Reopen replays at most
// this many records.
const DefaultCheckpointEvery = 8

// LogFile is the redo-log medium: the repl package's, since the log runs
// its protocol. Open wraps an *os.File from LogPath; tests, the crashtest
// harness and the benchmark substitute their own through Options.Log.
type LogFile = repl.LogFile

// Options configures Open.
type Options struct {
	// Path is the database file. Empty means a volatile in-memory backing
	// (used by tests).
	Path string
	// LogPath is the redo-log file; defaults to Path+".log". Ignored when
	// Path is empty (no log, no recovery).
	LogPath string
	// Backing, if non-nil, is used instead of opening Path — the hook the
	// fault-injection harness threads its wrapped media through.
	Backing pagefile.Backing
	// Log, if non-nil, is used instead of opening LogPath. Recovery runs
	// whenever a log is present, however it was supplied.
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
	Shipper repl.Shipper
	// Recovery, if non-nil, is filled with what Open's recovery had to do
	// (checkpoint cursor found, records replayed, next LSN).
	Recovery *repl.RecoveryInfo
	// Name overrides the report name ("OStore" by default).
	Name string
}

// Open opens or creates an ObjectStore-style store, replaying the redo log
// if an interrupted commit is found. On error every medium Open acquired
// (or was handed) is closed exactly once.
func Open(opts Options) (storage.Manager, error) {
	name := opts.Name
	if name == "" {
		name = "OStore"
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
		logPath := opts.LogPath
		if logPath == "" {
			logPath = opts.Path + ".log"
		}
		f, err := repl.OpenFile(logPath)
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
	nextLSN := uint64(1)
	var pending repl.ShipQueue
	if logFile != nil {
		n, replayed, err := recoverLog(logFile, backing, opts.SyncLog, opts.Recovery)
		if err != nil {
			backing.Close()
			logFile.Close()
			return nil, fmt.Errorf("ostore: recovery: %w", err)
		}
		nextLSN = n
		if opts.Shipper != nil {
			// A replayed record reached its durability point here but the
			// crash may have cut it off before (or mid-) shipment, leaving
			// the follower behind while the stream would resume past it.
			// Queue the replayed records for redelivery ahead of the next
			// commit group; records the follower already holds are retired
			// there without retransmission (see repl.ShipQueue).
			for _, rec := range replayed {
				pending.Add(rec.LSN, repl.EncodeRecord(rec.LSN, rec.Pages))
			}
		}
	} else if opts.Recovery != nil {
		*opts.Recovery = repl.RecoveryInfo{NextLSN: nextLSN}
	}

	ckptEvery := opts.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = DefaultCheckpointEvery
	}
	p := &pager{
		backing:   backing,
		log:       logFile,
		syncLog:   opts.SyncLog,
		shipper:   opts.Shipper,
		nextLSN:   nextLSN,
		pending:   pending,
		logEnd:    repl.CursorSize,
		ckptEvery: ckptEvery,
		pool:      make(map[pagefile.PageID]*frame),
		capacity:  pool,
		locks:     make(map[pagefile.PageID]pagefile.Mode),
		faultReq:  make(chan faultRequest),
		commitReq: make(chan *commitBatch, commitQueueDepth),
		done:      make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	go p.serve()
	go p.flushLoop()
	// ObjectStore-style compact page layout: records are packed exactly
	// (nil slack), which is why this manager's database files are smaller
	// than the texas manager's, as in the paper's table.
	store, err := pagefile.New(name, p, nil)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("ostore: %w", err)
	}
	return store, nil
}

// recoverLog replays the contiguous run of complete redo records the last
// session left past its checkpoint cursor, then empties the log behind a
// fresh cursor so this session starts from a file holding nothing stale.
// Work is O(records since the last checkpoint), never O(history): everything
// before the cursor was synced into the backing when the cursor was written. A torn tail record is
// discarded — its transaction never reached the durability point. Returns
// the next LSN to assign and the replayed records (whose page images stay
// valid: they alias the scan buffer).
func recoverLog(log LogFile, backing pagefile.Backing, syncLog bool, info *repl.RecoveryInfo) (uint64, []repl.Record, error) {
	cursorLSN, records, err := repl.ScanLog(log)
	if err != nil {
		return 0, nil, err
	}
	last := cursorLSN
	for _, rec := range records {
		if err := repl.ApplyRecord(backing, rec); err != nil {
			return 0, nil, fmt.Errorf("replay record %d: %w", rec.LSN, err)
		}
		last = rec.LSN
	}
	if len(records) > 0 {
		if err := backing.Sync(); err != nil {
			return 0, nil, err
		}
	}
	if err := repl.ResetLog(log, last, syncLog); err != nil {
		return 0, nil, err
	}
	if info != nil {
		*info = repl.RecoveryInfo{CheckpointLSN: cursorLSN, Replayed: len(records), NextLSN: last + 1}
	}
	return last + 1, records, nil
}

type frame struct {
	pf    pagefile.Frame
	pins  int
	dirty bool
	ref   bool
}

type faultRequest struct {
	id    pagefile.PageID
	buf   []byte
	reply chan error
}

// commitBatch carries one transaction's dirty pages to the group-commit
// flusher. done receives exactly one error (nil on success) once the batch
// is durable and written back in place.
type commitBatch struct {
	frames []*frame
	done   chan error
}

// maxScratchPages bounds the record buffer the flusher keeps between commits:
// a group of up to this many pages is encoded into the retained buffer, a
// wider one into a buffer of its own that dies with the flush. So what stays
// live between commits is at most one 16-page record (128 KiB), however wide
// the widest commit of the session was.
const maxScratchPages = 16

// commitQueueDepth bounds how many commit batches can queue behind an
// in-progress flush; queued batches are coalesced into the next single log
// write. The bound only back-pressures pathological fan-in — committers
// block on enqueue once it is full.
const commitQueueDepth = 64

// pager implements pagefile.Pager as an ObjectStore-style client cache in
// front of a page-server goroutine.
type pager struct {
	mu       sync.Mutex
	backing  pagefile.Backing
	log      LogFile
	syncLog  bool
	pool     map[pagefile.PageID]*frame
	ring     []*frame
	hand     int
	capacity int
	locks    map[pagefile.PageID]pagefile.Mode // locks held by the current transaction
	stats    pagefile.PagerStats
	closed   bool

	// Log/shipping state, touched only by the flushLoop goroutine (plus
	// Open, and Close after it has waited for flushDone), so it needs no
	// locking.
	shipper   repl.Shipper
	nextLSN   uint64
	pending   repl.ShipQueue // burned LSNs the follower never acked
	logEnd    int64          // live tail: where the next record goes, not the file's length
	ckptEvery int
	sinceCkpt int
	scratch   []byte // record buffer reused across flushes; at most maxScratchPages wide

	faultReq  chan faultRequest
	commitReq chan *commitBatch
	done      chan struct{}
	flushDone chan struct{} // closed when flushLoop exits
}

// serve is the page-server goroutine: every cache miss is a round trip here,
// the analog of ObjectStore's server mediating database access.
func (p *pager) serve() {
	for {
		select {
		case req := <-p.faultReq:
			req.reply <- p.backing.ReadPage(req.id, req.buf)
		case <-p.done:
			return
		}
	}
}

// lockLocked records (and upgrades) the page lock held by the running
// transaction. With the object layer serialized above us the lock table
// never blocks in-process; it exists so lock traffic is accounted and so
// commit-time release is observable, as in strict 2PL.
func (p *pager) lockLocked(id pagefile.PageID, mode pagefile.Mode) {
	held, ok := p.locks[id]
	if !ok {
		p.locks[id] = mode
		return
	}
	if mode == pagefile.ModeWrite && held == pagefile.ModeRead {
		p.locks[id] = pagefile.ModeWrite // lock upgrade
	}
}

func (p *pager) Pin(id pagefile.PageID, mode pagefile.Mode) (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	p.lockLocked(id, mode)
	if fr, ok := p.pool[id]; ok {
		fr.pins++
		fr.ref = true
		return &fr.pf, nil
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	buf := make([]byte, pagefile.PageSize)
	req := faultRequest{id: id, buf: buf, reply: make(chan error, 1)}
	p.faultReq <- req
	if err := <-req.reply; err != nil {
		return nil, fmt.Errorf("ostore: fault page %d: %w", id, err)
	}
	p.stats.Faults++
	fr := &frame{pf: pagefile.Frame{ID: id, Data: buf}, pins: 1, ref: true}
	fr.pf.Priv = fr
	p.pool[id] = fr
	p.ring = append(p.ring, fr)
	return &fr.pf, nil
}

// makeRoomLocked evicts one clean, unpinned page when the pool is full. The
// pool is no-steal: dirty pages stay resident until commit so the redo-only
// log suffices for atomicity. If everything is pinned or dirty the pool
// temporarily overshoots.
func (p *pager) makeRoomLocked() error {
	if len(p.pool) < p.capacity {
		return nil
	}
	for sweep := 0; sweep < 2*len(p.ring); sweep++ {
		if len(p.ring) == 0 {
			return nil
		}
		p.hand %= len(p.ring)
		fr := p.ring[p.hand]
		if fr.pins > 0 || fr.dirty {
			p.hand++
			continue
		}
		if fr.ref {
			fr.ref = false
			p.hand++
			continue
		}
		delete(p.pool, fr.pf.ID)
		p.ring[p.hand] = p.ring[len(p.ring)-1]
		p.ring = p.ring[:len(p.ring)-1]
		p.stats.Evictions++
		return nil
	}
	return nil
}

func (p *pager) Unpin(f *pagefile.Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr := f.Priv.(*frame)
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

func (p *pager) AllocPage() (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	id, err := p.backing.Grow()
	if err != nil {
		return nil, fmt.Errorf("ostore: grow: %w", err)
	}
	p.lockLocked(id, pagefile.ModeWrite)
	fr := &frame{pf: pagefile.Frame{ID: id, Data: make([]byte, pagefile.PageSize)}, pins: 1, dirty: true, ref: true}
	fr.pf.Priv = fr
	p.pool[id] = fr
	p.ring = append(p.ring, fr)
	return &fr.pf, nil
}

func (p *pager) Begin() error { return nil }

// Commit hands the transaction's dirty pages to the group-commit flusher
// and returns only after its batch is durable: logged, forced when SyncLog
// is set, and written back in place. Commits that arrive while a flush is
// in progress queue up and are coalesced into the next single log write, so
// concurrent committers share one durability point. With a single committer
// the protocol degrades to exactly the old one-record-per-commit behaviour
// — same log bytes, same page-write counts — which keeps recovery and the
// simulated statistics byte-compatible.
func (p *pager) Commit() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return pagefile.ErrPagerClosed
	}
	var dirty []*frame
	for _, fr := range p.ring {
		if fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	if len(dirty) == 0 {
		clear(p.locks) // strict 2PL: all locks released at commit
		p.trimLocked()
		p.mu.Unlock()
		return nil
	}
	// Enqueue outside mu so other committers can queue behind us to form a
	// group, and so the flusher can take mu for its stats update. The frame
	// images are stable while we wait: the object layer serializes access
	// per store, and this transaction's pages stay dirty (hence unevictable
	// under no-steal) until we mark them clean below.
	p.mu.Unlock()
	b := &commitBatch{frames: dirty, done: make(chan error, 1)}
	select {
	case p.commitReq <- b:
	case <-p.done:
		return pagefile.ErrPagerClosed
	}
	var err error
	select {
	case err = <-b.done:
	case <-p.done:
		return pagefile.ErrPagerClosed
	}
	if err != nil {
		return err
	}

	p.mu.Lock()
	for _, fr := range dirty {
		fr.dirty = false
	}
	clear(p.locks) // strict 2PL: all locks released at commit
	p.trimLocked()
	p.mu.Unlock()
	return nil
}

// flushLoop is the group-commit daemon. It takes one queued batch, drains
// whatever else has queued behind it, and flushes the union as a single
// redo record: one log write, one optional fsync, one pass of in-place page
// writes, and every ckptEvery-th time a checkpoint. Every batch in the group
// is then released at once.
func (p *pager) flushLoop() {
	defer close(p.flushDone)
	for {
		// Prefer shutdown over another batch when both are ready: Close
		// waits on flushDone before it touches the log and backing.
		select {
		case <-p.done:
			return
		default:
		}
		select {
		case b := <-p.commitReq:
			batches := []*commitBatch{b}
		drain:
			for {
				select {
				case nb := <-p.commitReq:
					batches = append(batches, nb)
				default:
					break drain
				}
			}
			err := p.flushBatches(batches)
			for _, b := range batches {
				b.done <- err
			}
		case <-p.done:
			return
		}
	}
}

// flushBatches forms one redo record from the union of the batches' dirty
// pages and applies it. Pages keep first-dirtied order; a page appearing in
// several batches keeps the latest image — the same state replaying the
// batches in order would produce. The record is appended to the log under
// the next LSN, shipped to the standby (if any) once durable, applied in
// place, and eventually retired by a periodic checkpoint.
func (p *pager) flushBatches(batches []*commitBatch) error {
	var order []*frame
	seen := make(map[pagefile.PageID]int, len(batches[0].frames))
	for _, b := range batches {
		for _, fr := range b.frames {
			if i, dup := seen[fr.pf.ID]; dup {
				order[i] = fr // later batch supersedes the image
				continue
			}
			seen[fr.pf.ID] = len(order)
			order = append(order, fr)
		}
	}
	if len(order) == 0 {
		return nil
	}
	// Records whose earlier shipment was never acked must land on the
	// follower before this group's record: acking LSN n promises the
	// follower holds everything through n. A redelivery failure fails the
	// group before it burns a new LSN.
	if p.shipper != nil {
		if err := p.pending.Resolve(p.shipper); err != nil {
			return fmt.Errorf("ostore: %w", err)
		}
	}
	if p.log != nil || p.shipper != nil {
		pages := make([]repl.PageImage, len(order))
		for i, fr := range order {
			pages[i] = repl.PageImage{ID: fr.pf.ID, Data: fr.pf.Data}
		}
		// Encode into the flusher's own buffer: the log write, the sync and
		// the shipper are all done with the bytes when they return.
		buf := p.scratch
		if need := repl.RecordSize(uint32(len(pages))); int64(cap(buf)) < need {
			buf = make([]byte, 0, need)
		}
		buf = repl.AppendRecord(buf[:0], p.nextLSN, pages)
		if len(pages) <= maxScratchPages {
			p.scratch = buf
		}
		if p.log != nil {
			if _, err := p.log.WriteAt(buf, p.logEnd); err != nil {
				return fmt.Errorf("ostore: write log: %w", err)
			}
			if p.syncLog {
				if err := p.log.Sync(); err != nil {
					return fmt.Errorf("ostore: sync log: %w", err)
				}
			}
		}
		// The record is durable locally; it must reach the standby before any
		// client learns the commit succeeded. A Ship failure fails the whole
		// group — the record stays in the log, so the commit lands on reopen
		// even though its clients saw an error (the crash-inside-Commit
		// "either side" contract). The LSN is burned either way: the exact
		// bytes are kept for redelivery ahead of the next group, and the
		// stream advances past them, so an LSN is never reused for different
		// contents (the invariant the standby's duplicate re-ack relies on).
		if p.shipper != nil {
			if err := p.shipper.Ship(p.nextLSN, buf); err != nil {
				lsn := p.nextLSN
				p.pending.Add(lsn, bytes.Clone(buf))
				p.nextLSN++
				if p.log != nil {
					p.logEnd += int64(len(buf))
				}
				return fmt.Errorf("ostore: ship record %d: %w", lsn, err)
			}
		}
		p.nextLSN++
		p.logEnd += int64(len(buf))
	}
	// Durability point passed: apply in place.
	for _, fr := range order {
		if err := p.backing.WritePage(fr.pf.ID, fr.pf.Data); err != nil {
			return fmt.Errorf("ostore: commit write page %d: %w", fr.pf.ID, err)
		}
	}
	p.mu.Lock()
	p.stats.PageWrites += uint64(len(order))
	p.mu.Unlock()
	if p.log != nil {
		p.sinceCkpt++
		every := p.ckptEvery
		if every < 1 {
			every = 1
		}
		if p.sinceCkpt >= every {
			// Checkpoint: force the applied pages down, then retire every
			// logged record behind a fresh cursor.
			if err := p.backing.Sync(); err != nil {
				return fmt.Errorf("ostore: checkpoint sync: %w", err)
			}
			if err := repl.Checkpoint(p.log, p.nextLSN-1, p.syncLog); err != nil {
				return fmt.Errorf("ostore: checkpoint: %w", err)
			}
			p.sinceCkpt = 0
			p.logEnd = repl.CursorSize
		}
	}
	return nil
}

// trimLocked shrinks the pool back to capacity after a commit. During a
// transaction the no-steal policy lets the pool overshoot (dirty pages are
// unevictable); once everything is clean the overshoot is released.
func (p *pager) trimLocked() {
	for len(p.pool) > p.capacity {
		evicted := false
		for sweep := 0; sweep < 2*len(p.ring) && len(p.pool) > p.capacity; sweep++ {
			p.hand %= len(p.ring)
			fr := p.ring[p.hand]
			if fr.pins > 0 || fr.dirty {
				p.hand++
				continue
			}
			if fr.ref {
				fr.ref = false
				p.hand++
				continue
			}
			delete(p.pool, fr.pf.ID)
			p.ring[p.hand] = p.ring[len(p.ring)-1]
			p.ring = p.ring[:len(p.ring)-1]
			p.stats.Evictions++
			evicted = true
		}
		if !evicted {
			return
		}
	}
}

func (p *pager) Stats() pagefile.PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *pager) SizeBytes() uint64 { return p.backing.SizeBytes() }

func (p *pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Stop the daemons, then wait for an in-flight group flush to drain:
	// flushBatches writes the log and backing and owns nextLSN/logEnd, so
	// none of the teardown below may overlap it. The wait must happen
	// outside p.mu — flushBatches takes p.mu for its stats update.
	close(p.done)
	<-p.flushDone
	p.mu.Lock()
	var errs []error
	for _, fr := range p.ring {
		if fr.dirty {
			if err := p.backing.WritePage(fr.pf.ID, fr.pf.Data); err != nil {
				errs = append(errs, err)
			}
			p.stats.PageWrites++
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
		// record is retired and the next open replays nothing. This one
		// gives the recycled blocks back.
		if err := repl.ResetLog(p.log, p.nextLSN-1, p.syncLog); err != nil {
			errs = append(errs, err)
		}
		if err := p.log.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	p.mu.Unlock()
	return errors.Join(errs...)
}
