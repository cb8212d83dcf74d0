package labbase

import (
	"fmt"
	"sync"
	"sync/atomic"

	"labflow/internal/storage"
)

// This file implements the MVCC snapshot machinery behind DB's lock-free
// read path. The design is read-through copy-on-write:
//
//   - The writer (under DB.wmu) mutates its working state — catalog,
//     counters, treap index roots, and the storage-manager records — in
//     place, exactly as the locked implementation did. At the end of every
//     mutating entry point it publishes an immutable dbState via one atomic
//     pointer swap. Only touched structures are copied: the catalog and
//     counters are cloned at publish when an op marked them, the treap
//     roots are shared structurally.
//
//   - Readers capture the current dbState once (Snap), pin its epoch in a
//     reader slot, and run entirely lock-free: catalog, counters and index
//     lookups come from the captured state; record reads go through the
//     shared decode caches and storage manager (which both return copies)
//     and are then corrected through the version table below.
//
//   - Records that are mutated in place (material records, most-recent
//     indexes) get a pre-image saved into the version table, keyed by OID
//     and tagged with the epoch of the overwriting publish, strictly
//     *before* the storage write. A reader at epoch e that sees post-image
//     bytes therefore always finds the pre-image for the oldest overwrite
//     after e. Records that only grow in place (history chunks, extent
//     chunks — entries are never rewritten, the count advances last) need
//     no pre-images: the snapshot's counts truncate them to the
//     capture-time prefix. Immutable records (steps, sets) need nothing.
//
// Sequential runs stay byte-identical to the locked implementation: with
// no concurrent readers pinning old epochs, every publish prunes the
// version table empty, so the read path performs exactly the same storage
// and cache accesses (and thus the same simulated-fault accounting) as
// before.

// dbState is one immutable published snapshot of the database's in-memory
// state. All fields are read-only once the state is stored.
type dbState struct {
	epoch      uint64
	cat        *catalog
	cnt        *counters
	stateRoots []*treapNode[uint64, struct{}] // index = StateID-1
	nameRoot   *treapNode[string, storage.OID]
	invRoot    *treapNode[uint64, *invList] // material OID -> steps, newest first
}

// --- version table -----------------------------------------------------------

// verEntry is one saved pre-image: the value its OID had just before the
// write published at epoch. pre is *materialRec or []byte (most-recent
// index bytes); nil records a creation (the object did not exist before
// epoch).
type verEntry struct {
	epoch uint64
	pre   any
}

// verTable holds pre-images of in-place-overwritten records for the benefit
// of readers pinned to older epochs. Entries are saved by the writer (under
// DB.wmu) before the corresponding storage write and pruned at each publish
// up to the oldest pinned epoch, so sequential runs keep it empty.
type verTable struct {
	n    atomic.Int64 // live entries; lock-free empty check for readers
	mu   sync.RWMutex
	m    map[storage.OID][]verEntry
	fifo []storage.OID // one element per saved entry, in epoch order
}

// save records pre as oid's value before the write at epoch. Repeated saves
// for the same (oid, epoch) keep the first — that is the value readers
// below epoch must see.
func (t *verTable) save(oid storage.OID, epoch uint64, pre any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[storage.OID][]verEntry)
	}
	chain := t.m[oid]
	if k := len(chain); k > 0 && chain[k-1].epoch >= epoch {
		return
	}
	t.m[oid] = append(chain, verEntry{epoch: epoch, pre: pre})
	t.fifo = append(t.fifo, oid)
	t.n.Add(1)
}

// lookup returns the value oid had at reader epoch e: the pre-image of the
// oldest overwrite published after e. ok=false means the current version is
// the right one.
func (t *verTable) lookup(oid storage.OID, e uint64) (any, bool) {
	if t.n.Load() == 0 {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ent := range t.m[oid] {
		if ent.epoch > e {
			return ent.pre, true
		}
	}
	return nil, false
}

// prune drops every entry with epoch <= min: no active reader (all pinned
// at >= min) or future reader (they will pin the current epoch) can need
// it. fifo is in epoch order, so pruning pops a prefix.
func (t *verTable) prune(min uint64) {
	if t.n.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := 0
	for ; i < len(t.fifo); i++ {
		oid := t.fifo[i]
		chain := t.m[oid]
		if chain[0].epoch > min {
			break
		}
		if len(chain) == 1 {
			delete(t.m, oid)
		} else {
			t.m[oid] = chain[1:]
		}
	}
	if i > 0 {
		t.fifo = append(t.fifo[:0], t.fifo[i:]...)
		t.n.Add(int64(-i))
	}
}

// --- reader slots ------------------------------------------------------------

// readerSlots registers the epochs active snapshots are pinned to, so the
// writer can bound version-table pruning. The fast path is one CAS into a
// fixed slot array; the overflow map only engages past 64 concurrent
// snapshots. A slot holds epoch+1 (0 = free).
type readerSlots struct {
	slots    [64]atomic.Uint64
	mu       sync.Mutex
	overflow map[uint64]int // epoch -> pin count
}

// pin registers a reader at epoch and returns its slot (-1 = overflow).
func (r *readerSlots) pin(epoch uint64) int {
	v := epoch + 1
	for i := range r.slots {
		if r.slots[i].CompareAndSwap(0, v) {
			return i
		}
	}
	r.mu.Lock()
	if r.overflow == nil {
		r.overflow = make(map[uint64]int)
	}
	r.overflow[epoch]++
	r.mu.Unlock()
	return -1
}

// unpin releases a pin taken at epoch.
func (r *readerSlots) unpin(slot int, epoch uint64) {
	if slot >= 0 {
		r.slots[slot].Store(0)
		return
	}
	r.mu.Lock()
	if r.overflow[epoch]--; r.overflow[epoch] <= 0 {
		delete(r.overflow, epoch)
	}
	r.mu.Unlock()
}

// minPinned returns the oldest pinned epoch, or cur when nothing is pinned.
func (r *readerSlots) minPinned(cur uint64) uint64 {
	min := cur
	for i := range r.slots {
		if v := r.slots[i].Load(); v != 0 && v-1 < min {
			min = v - 1
		}
	}
	r.mu.Lock()
	for e := range r.overflow {
		if e < min {
			min = e
		}
	}
	r.mu.Unlock()
	return min
}

// --- snapshot handles --------------------------------------------------------

// Snap is a consistent read-only view of the database as of one published
// epoch. All read entry points of DB are available as Snap methods and run
// lock-free against the captured state; the handle must be released with
// Close once the caller is done, so the writer can reclaim pre-images.
type Snap struct {
	db     *DB
	st     *dbState
	slot   int
	closed bool
}

// acquire captures the current snapshot and pins its epoch. The validation
// loop re-reads the state pointer after pinning: if a writer published in
// between, its prune scan may have missed the pin, so retry against the
// fresh state (epochs only grow, so this terminates as soon as a load and
// a pin land between two publishes).
func (db *DB) acquire() *Snap {
	for {
		st := db.state.Load()
		slot := db.readers.pin(st.epoch)
		if db.state.Load() == st {
			return &Snap{db: db, st: st, slot: slot}
		}
		db.readers.unpin(slot, st.epoch)
	}
}

// Snapshot captures a consistent read view of the database. The returned
// snapshot sees exactly the state as of the most recent completed write
// and is unaffected by later writes. It must be Closed.
func (db *DB) Snapshot() (Snapshot, error) { return db.acquire(), nil }

// Close releases the snapshot's epoch pin. Idempotent.
func (s *Snap) Close() error {
	if !s.closed {
		s.closed = true
		s.db.readers.unpin(s.slot, s.st.epoch)
	}
	return nil
}

// Epoch reports the publish epoch this snapshot captured.
func (s *Snap) Epoch() uint64 { return s.st.epoch }

// readMaterial returns the material record as of the snapshot: the current
// record (cache or storage, both return copies), corrected by the version
// table. Reading current-then-correcting is what makes the lock-free race
// benign — the pre-image is saved before any overwrite, so post-image
// bytes imply a visible version entry.
func (s *Snap) readMaterial(oid storage.OID) (*materialRec, error) {
	m, err := s.db.readMaterial(oid)
	if pre, ok := s.db.vers.lookup(oid, s.st.epoch); ok {
		if pre == nil {
			return nil, fmt.Errorf("labbase: material %v: %w", oid, storage.ErrNoSuchObject)
		}
		mc := *(pre.(*materialRec))
		return &mc, nil
	}
	return m, err
}

// readMR returns the most-recent index bytes as of the snapshot. The
// returned slice must not be mutated (it may be the cached copy or a
// shared pre-image).
func (s *Snap) readMR(mrOID storage.OID) ([]byte, error) {
	data, err := s.db.mrCache.getOrFill(mrOID, func() ([]byte, error) {
		data, err := s.db.sm.Read(mrOID)
		if err != nil {
			return nil, fmt.Errorf("labbase: read most-recent index: %w", err)
		}
		if err := checkMRIndex(data); err != nil {
			return nil, err
		}
		return data, nil
	})
	if pre, ok := s.db.vers.lookup(mrOID, s.st.epoch); ok {
		return pre.([]byte), nil
	}
	return data, err
}

// --- publication (writer side) -----------------------------------------------

// markCat notes that the current write op touched the catalog: it must be
// rewritten at commit and cloned into the next published snapshot.
func (db *DB) markCat() {
	db.cat.dirty = true
	db.catTouched = true
	db.dirtySincePublish = true
}

// markCnt is markCat's counterpart for the counters record.
func (db *DB) markCnt() {
	db.cntDirty = true
	db.cntTouched = true
	db.dirtySincePublish = true
}

// publish installs a new immutable snapshot of the working state and prunes
// the version table up to the oldest epoch still pinned. Caller holds wmu.
// Structural sharing keeps this cheap: the catalog and counters are cloned
// only when the ops since the last publish touched them, and the treap
// roots are pointer copies.
func (db *DB) publish() {
	if db.catTouched || db.snapCat == nil {
		db.snapCat = db.cat.clone()
		db.catTouched = false
	}
	if db.cntTouched || db.snapCnt == nil {
		c := db.cnt.clone()
		db.snapCnt = &c
		db.cntTouched = false
	}
	st := &dbState{
		epoch:      db.wEpoch,
		cat:        db.snapCat,
		cnt:        db.snapCnt,
		stateRoots: append([]*treapNode[uint64, struct{}](nil), db.stateRoots...),
		nameRoot:   db.nameRoot,
		invRoot:    db.invRoot,
	}
	db.state.Store(st)
	db.wEpoch++
	db.dirtySincePublish = false
	db.vers.prune(db.readers.minPinned(st.epoch))
}

// publishIfDirty publishes when any mutation happened since the last
// publish. Write entry points call it on every exit, so failed ops that
// mutated partially still become visible at a consistent op boundary (the
// same partial state the locked implementation exposed), while validation
// failures publish nothing and burn no epoch.
func (db *DB) publishIfDirty() {
	if db.dirtySincePublish {
		db.publish()
	}
}
