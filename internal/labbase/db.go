// Package labbase implements the workflow wrapper DBMS of the LabFlow-1
// paper's Architecture (C): a specialized layer that provides event
// histories, most-recent-value access structures, workflow states, material
// sets, and dynamic schema evolution on top of an object storage manager
// that supports none of those directly.
//
// The storage schema is the paper's Table 1 — exactly three storage classes:
//
//	sm_step      one record per workflow event, immutable once written
//	sm_material  one record per lab material, holding its state and the
//	             involves pointer to its history list
//	material_set write-once sets of materials for batched steps
//
// plus the access structures (history chunks, most-recent indexes, class
// extents, counters) that LabBase keeps "for rapid access into history
// lists". Records are placed across the four storage segments defined in
// package storage: catalog, material and index (small, hot) and history
// (large, cold).
//
// Schema evolution follows the paper exactly: a step class evolves by
// recording steps with a new attribute set; each attribute set is a version;
// instances stay bound to their creating version forever, so schema changes
// never reorganize old data.
package labbase

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Errors returned by the database layer.
var (
	ErrUnknownClass  = errors.New("labbase: unknown class")
	ErrUnknownAttr   = errors.New("labbase: unknown attribute")
	ErrUnknownState  = errors.New("labbase: unknown state")
	ErrKindMismatch  = errors.New("labbase: value kind does not match attribute")
	ErrNotMaterial   = errors.New("labbase: object is not a material")
	ErrNoTransaction = errors.New("labbase: no transaction in progress")
	ErrDuplicateName = errors.New("labbase: material name already in use")
)

// Options tunes an open database.
type Options struct {
	// CacheEntries sizes the in-memory caches of decoded hot records
	// (material records and most-recent indexes): slots per cache, rounded
	// up to a power of two. Cached reads skip the storage manager entirely,
	// so they also skip its simulated fault accounting — slot placement is a
	// function of the OID alone precisely so benchmark runs stay
	// reproducible. 0 disables caching; DefaultOptions enables
	// DefaultCacheEntries.
	CacheEntries int
}

// DefaultCacheEntries is the decode-cache bound used by DefaultOptions.
const DefaultCacheEntries = 1024

// DefaultOptions returns the defaults described on Options.
func DefaultOptions() Options {
	return Options{CacheEntries: DefaultCacheEntries}
}

// DB is a LabBase database over a storage manager. Mutating calls must be
// bracketed by Begin/Commit; reads may run at any time.
//
// Concurrency contract: a DB is safe for concurrent use with single-writer,
// snapshot-reader semantics. Read entry points take no lock at all: each
// captures the current published snapshot (one atomic load plus an epoch
// pin, see snapshot.go) and runs against it for the duration of the call,
// so readers never wait on writers or on each other. Snapshot() exposes the
// same mechanism to callers that want one consistent view across several
// reads. Mutations (Begin, Commit, the Define* calls, CreateMaterial,
// CreateMaterialSet, RecordStep, SetState, Close) serialize on the writer
// mutex wmu and publish a new snapshot before returning. Callers running
// several write transactions concurrently must additionally serialize their
// Begin/Commit brackets (the wire server's write lock does this); wmu alone
// only makes the individual calls atomic. The decode caches and the version
// table are internally synchronized leaf locks below wmu — see DESIGN.md
// §9 for the full hierarchy. Close must not run concurrently with reads:
// it releases the storage manager, which active snapshots still read
// through (the wire server drains its connections first).
type DB struct {
	// wmu serializes mutations among themselves. Readers never touch it:
	// the published-snapshot pointer below is their only rendezvous with
	// the writer.
	wmu sync.Mutex

	sm  storage.Manager
	cat *catalog
	cnt counters

	// Volatile access structures, rebuilt at open. Persistent treaps so a
	// published snapshot shares all but the most recently touched paths
	// with the writer's working copy (see treap.go).
	stateRoots []*treapNode[uint64, struct{}]  // index = StateID-1; key = material OID
	nameRoot   *treapNode[string, storage.OID] // material name -> OID
	invRoot    *treapNode[uint64, *invList]    // material OID -> involving steps

	// Decode caches for the hot read paths (see Options.CacheEntries). Both
	// are refreshed, or invalidated when the write fails, on every write to
	// the records they mirror. Both are lock-free (cache.go): a hit is one
	// atomic load, and a fill never installs over a writer's update.
	matCache *oidCache[materialRec]
	mrCache  *oidCache[[]byte]

	inTxn    atomic.Bool
	cntDirty bool
	seq      int64  // logical transaction-time counter
	cntBuf   []byte // scratch buffer for counter encodes, reused per commit

	// MVCC publication state (snapshot.go). state is the atomically-swapped
	// pointer readers capture; vers holds pre-images for readers pinned to
	// older epochs; readers tracks those pins so publish can prune.
	state   atomic.Pointer[dbState]
	vers    verTable
	readers readerSlots
	// wEpoch is the epoch the next publish will carry (published epoch + 1).
	wEpoch uint64
	// snapCat/snapCnt are the catalog and counters clones in the currently
	// published snapshot; publish reuses them while no op has touched the
	// working copies since (catTouched/cntTouched).
	snapCat           *catalog
	snapCnt           *counters
	catTouched        bool
	cntTouched        bool
	dirtySincePublish bool
}

// Open opens the LabBase database stored in sm, formatting a fresh one if
// the store has no root.
func Open(sm storage.Manager, opts Options) (*DB, error) {
	db := &DB{
		sm:       sm,
		matCache: newOIDCache[materialRec](opts.CacheEntries),
		mrCache:  newOIDCache[[]byte](opts.CacheEntries),
	}
	root, err := sm.Root()
	if err != nil {
		return nil, err
	}
	if root.IsNil() {
		if err := db.format(); err != nil {
			return nil, err
		}
		db.wEpoch = 1
		db.publish()
		return db, nil
	}
	data, err := sm.Read(root)
	if err != nil {
		return nil, fmt.Errorf("labbase: read catalog: %w", err)
	}
	db.cat, err = decodeCatalog(data)
	if err != nil {
		return nil, err
	}
	cdata, err := sm.Read(db.cat.countersOID)
	if err != nil {
		return nil, fmt.Errorf("labbase: read counters: %w", err)
	}
	db.cnt, err = decodeCounters(cdata)
	if err != nil {
		return nil, err
	}
	// Extent walks and snapshot reads index the counts by catalog ID.
	if len(db.cnt.matsByClass) < len(db.cat.materialClasses) || len(db.cnt.stepsByClass) < len(db.cat.stepClasses) ||
		len(db.cnt.matsByState) < len(db.cat.states) {
		return nil, fmt.Errorf("labbase: counters record has fewer counts than the catalog: %w", rec.ErrCorrupt)
	}
	if err := db.rebuildStateIndex(); err != nil {
		return nil, err
	}
	db.seq = int64(db.cnt.totalSteps() + db.cnt.totalMaterials())
	db.wEpoch = 1
	db.publish()
	return db, nil
}

func (db *DB) format() error {
	db.cat = newCatalog()
	if err := db.sm.Begin(); err != nil {
		return err
	}
	coid, err := db.sm.Allocate(storage.SegIndex, db.cnt.encode())
	if err != nil {
		return fmt.Errorf("labbase: format counters: %w", err)
	}
	db.cat.countersOID = coid
	root, err := db.sm.Allocate(storage.SegCatalog, db.cat.encode())
	if err != nil {
		return fmt.Errorf("labbase: format catalog: %w", err)
	}
	if err := db.sm.SetRoot(root); err != nil {
		return err
	}
	return db.sm.Commit()
}

// rebuildStateIndex reconstructs the in-memory access structures — the
// state sets, the name index and the reverse involves index. LabBase keeps
// its volatile access structures in memory and rebuilds them at server
// start.
func (db *DB) rebuildStateIndex() error {
	db.stateRoots = make([]*treapNode[uint64, struct{}], len(db.cat.states))
	for _, mc := range db.cat.materialClasses {
		err := db.scanExtent(mc.extentHead, db.cnt.matsByClass[mc.ID-1], func(oid storage.OID) error {
			m, err := db.readMaterial(oid)
			if err != nil {
				return err
			}
			if m.stateID != 0 {
				db.stateIdxAdd(m.stateID, oid)
			}
			if m.name != "" {
				db.nameRoot = treapPut(db.nameRoot, m.name, namePri(m.name), oid)
			}
			return db.rebuildInvolves(oid, m)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildInvolves replays a material's history chain into the reverse
// involves index (material -> steps that processed it).
func (db *DB) rebuildInvolves(oid storage.OID, m *materialRec) error {
	var l *invList
	err := db.walk(&historyChain, m.historyHead, m.historyCount, func(b []byte) error {
		for ; len(b) >= historyEntrySize; b = b[historyEntrySize:] {
			l = &invList{step: historyEntryAt(b).Step, next: l, n: l.length() + 1}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if l != nil {
		db.invRoot = treapPut(db.invRoot, uint64(oid), oidPri(uint64(oid)), l)
	}
	return nil
}

func (db *DB) stateIdxAdd(s StateID, oid storage.OID) {
	for len(db.stateRoots) < int(s) {
		db.stateRoots = append(db.stateRoots, nil)
	}
	db.stateRoots[s-1] = treapPut(db.stateRoots[s-1], uint64(oid), oidPri(uint64(oid)), struct{}{})
}

func (db *DB) stateIdxRemove(s StateID, oid storage.OID) {
	if int(s) <= len(db.stateRoots) {
		db.stateRoots[s-1] = treapDelete(db.stateRoots[s-1], uint64(oid))
	}
}

// Begin starts a transaction.
func (db *DB) Begin() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.sm.Begin(); err != nil {
		return err
	}
	db.inTxn.Store(true)
	return nil
}

// Commit writes back the catalog and counters if they changed and commits
// the storage transaction: Seal, then wait for durability outside wmu.
func (db *DB) Commit() error {
	durable, err := db.Seal()
	if err != nil {
		return err
	}
	return durable()
}

// Seal implements Sealer: it ends the transaction under wmu — catalog and
// counters written back, the storage transaction sealed (storage.Seal) —
// and returns the storage manager's durable wait, so the next Begin runs
// while this transaction's flush is in flight. Its effects are already
// published to snapshots; durable is what an acknowledgment must wait for.
func (db *DB) Seal() (durable func() error, err error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if !db.inTxn.Load() {
		return nil, ErrNoTransaction
	}
	if db.cat.dirty {
		root, err := db.sm.Root()
		if err != nil {
			return nil, err
		}
		e := rec.GetEncoder()
		db.cat.encodeTo(e)
		err = db.sm.Write(root, e.Bytes())
		rec.PutEncoder(e)
		if err != nil {
			return nil, fmt.Errorf("labbase: write catalog: %w", err)
		}
		db.cat.dirty = false
	}
	if db.cntDirty {
		// The counter record is rewritten on almost every transaction; encode
		// it into a scratch buffer the DB owns (the manager copies the bytes).
		db.cntBuf = db.cnt.appendTo(db.cntBuf[:0])
		if err := db.sm.Write(db.cat.countersOID, db.cntBuf); err != nil {
			return nil, fmt.Errorf("labbase: write counters: %w", err)
		}
		db.cntDirty = false
	}
	db.inTxn.Store(false)
	// Backstop publish: ops normally publish themselves on exit, but an op
	// that failed partway may have left unpublished mutations behind.
	db.publishIfDirty()
	return storage.Seal(db.sm)
}

func (db *DB) requireTxn() error {
	if !db.inTxn.Load() {
		return ErrNoTransaction
	}
	return nil
}

// InTxn reports whether a transaction is open.
func (db *DB) InTxn() bool {
	return db.inTxn.Load()
}

// Close closes the database (the storage manager with it).
func (db *DB) Close() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.sm.Close()
}

// Manager exposes the underlying storage manager (for stats collection).
func (db *DB) Manager() storage.Manager { return db.sm }

// nextTxnTime issues the logical transaction timestamp for a new record.
// Valid time, by contrast, is supplied by the caller: the paper is explicit
// that "most recent" is based on valid time, not transaction time.
func (db *DB) nextTxnTime() int64 {
	db.seq++
	return db.seq
}

// --- Schema definition -----------------------------------------------------

// DefineMaterialClass registers a material class under an optional parent
// (is-a link). Re-defining an existing class with the same parent is a
// no-op; with a different parent it is an error.
func (db *DB) DefineMaterialClass(name, parent string) (ClassID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return 0, err
	}
	if name == "" {
		return 0, fmt.Errorf("labbase: empty material class name")
	}
	var parentID ClassID
	if parent != "" {
		pc, ok := db.cat.byMCName[parent]
		if !ok {
			return 0, fmt.Errorf("%w: parent %q", ErrUnknownClass, parent)
		}
		parentID = pc.ID
	}
	if mc, ok := db.cat.byMCName[name]; ok {
		if mc.Parent != parentID {
			return 0, fmt.Errorf("labbase: class %q already defined with a different parent", name)
		}
		return mc.ID, nil
	}
	mc := &MaterialClass{ID: ClassID(len(db.cat.materialClasses) + 1), Name: name, Parent: parentID}
	db.cat.materialClasses = append(db.cat.materialClasses, mc)
	db.cat.byMCName[name] = mc
	db.markCat()
	db.cnt.growTo(len(db.cat.materialClasses), len(db.cat.stepClasses), len(db.cat.states))
	db.markCnt()
	return mc.ID, nil
}

// DefineAttr registers an attribute. Redefinition with a conflicting kind is
// an error; with the same kind it is a no-op.
func (db *DB) DefineAttr(name string, kind Kind) (AttrID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return 0, err
	}
	return db.defineAttrLocked(name, kind)
}

func (db *DB) defineAttrLocked(name string, kind Kind) (AttrID, error) {
	if name == "" {
		return 0, fmt.Errorf("labbase: empty attribute name")
	}
	if id, ok := db.cat.byAttrName[name]; ok {
		existing := db.cat.attrs[id-1]
		if existing.Kind != kind && kind != KindAny && existing.Kind != KindAny {
			return 0, fmt.Errorf("%w: attribute %q is %v, redefined as %v", ErrKindMismatch, name, existing.Kind, kind)
		}
		return id, nil
	}
	db.cat.attrs = append(db.cat.attrs, AttrDef{Name: name, Kind: kind})
	id := AttrID(len(db.cat.attrs))
	db.cat.byAttrName[name] = id
	db.markCat()
	return id, nil
}

// DefineStepClass registers a step class version for the given attribute
// set, creating the class and any unknown attributes as needed. It returns
// the class and the version matching the attribute set — an existing version
// if one matches, a fresh one otherwise. This is the paper's schema
// evolution: "as a step evolves, new versions of the step are created" and
// "each step object is associated forever with the same version".
func (db *DB) DefineStepClass(name string, attrs []AttrDef) (StepClassID, Version, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return 0, 0, err
	}
	if name == "" {
		return 0, 0, fmt.Errorf("labbase: empty step class name")
	}
	ids := make([]AttrID, 0, len(attrs))
	for _, a := range attrs {
		id, err := db.defineAttrLocked(a.Name, a.Kind)
		if err != nil {
			return 0, 0, err
		}
		ids = append(ids, id)
	}
	sc, ok := db.cat.bySCName[name]
	if !ok {
		sc = db.newStepClassLocked(name)
	}
	ver, err := db.stepVersionLocked(sc, ids)
	if err != nil {
		return 0, 0, err
	}
	return sc.ID, ver, nil
}

// newStepClassLocked defines a step class with no versions yet.
func (db *DB) newStepClassLocked(name string) *StepClass {
	sc := &StepClass{
		ID:        StepClassID(len(db.cat.stepClasses) + 1),
		Name:      name,
		byAttrKey: make(map[string]Version),
	}
	db.cat.stepClasses = append(db.cat.stepClasses, sc)
	db.cat.bySCName[name] = sc
	db.markCat()
	db.cnt.growTo(len(db.cat.materialClasses), len(db.cat.stepClasses), len(db.cat.states))
	db.markCnt()
	return sc
}

func (db *DB) stepVersionLocked(sc *StepClass, ids []AttrID) (Version, error) {
	key := attrKey(ids)
	if v, ok := sc.byAttrKey[key]; ok {
		return v, nil
	}
	sorted := make([]AttrID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	v := Version(len(sc.Versions) + 1)
	sc.Versions = append(sc.Versions, StepVersion{Ver: v, Attrs: sorted})
	sc.byAttrKey[key] = v
	db.markCat()
	return v, nil
}

// DefineState registers a workflow state name.
func (db *DB) DefineState(name string) (StateID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return 0, err
	}
	if name == "" {
		return 0, fmt.Errorf("labbase: empty state name")
	}
	if id, ok := db.cat.byState[name]; ok {
		return id, nil
	}
	db.cat.states = append(db.cat.states, name)
	id := StateID(len(db.cat.states))
	db.cat.byState[name] = id
	db.stateRoots = append(db.stateRoots, nil)
	db.markCat()
	db.cnt.growTo(len(db.cat.materialClasses), len(db.cat.stepClasses), len(db.cat.states))
	db.markCnt()
	return id, nil
}

// MaterialClasses returns the defined material class names in definition
// order.
func (db *DB) MaterialClasses() []string {
	s := db.acquire()
	defer s.Close()
	return s.MaterialClasses()
}

// MaterialClasses returns the class names as of the snapshot.
func (s *Snap) MaterialClasses() []string {
	cat := s.st.cat
	out := make([]string, len(cat.materialClasses))
	for i, mc := range cat.materialClasses {
		out[i] = mc.Name
	}
	return out
}

// StepClasses returns the defined step class names in definition order.
func (db *DB) StepClasses() []string {
	s := db.acquire()
	defer s.Close()
	return s.StepClasses()
}

// StepClasses returns the step class names as of the snapshot.
func (s *Snap) StepClasses() []string {
	cat := s.st.cat
	out := make([]string, len(cat.stepClasses))
	for i, sc := range cat.stepClasses {
		out[i] = sc.Name
	}
	return out
}

// StepClassVersions returns the versions of a step class with attribute
// names resolved.
func (db *DB) StepClassVersions(name string) ([][]string, error) {
	s := db.acquire()
	defer s.Close()
	return s.StepClassVersions(name)
}

// StepClassVersions returns the versions as of the snapshot.
func (s *Snap) StepClassVersions(name string) ([][]string, error) {
	cat := s.st.cat
	sc, ok := cat.bySCName[name]
	if !ok {
		return nil, fmt.Errorf("%w: step class %q", ErrUnknownClass, name)
	}
	out := make([][]string, len(sc.Versions))
	for i, v := range sc.Versions {
		names := make([]string, len(v.Attrs))
		for j, a := range v.Attrs {
			def, err := cat.attr(a)
			if err != nil {
				return nil, err
			}
			names[j] = def.Name
		}
		out[i] = names
	}
	return out, nil
}

// States returns the defined state names in definition order.
func (db *DB) States() []string {
	s := db.acquire()
	defer s.Close()
	return s.States()
}

// States returns the state names as of the snapshot.
func (s *Snap) States() []string {
	return append([]string(nil), s.st.cat.states...)
}
