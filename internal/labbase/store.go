package labbase

import (
	"labflow/internal/storage"
)

// Reader is the read-only LabBase surface. It is implemented both by the
// stores themselves (each read captures a fresh snapshot internally) and by
// the snapshot handles they hand out (every read answers against one fixed
// capture-time state). Code that only consumes data — the deductive
// bridge's externs, report generators — should accept a Reader so it runs
// unchanged over either.
type Reader interface {
	// Schema.
	MaterialClasses() []string
	StepClasses() []string
	StepClassVersions(name string) ([][]string, error)
	States() []string

	// Materials and sets.
	LookupMaterial(name string) (storage.OID, bool)
	GetMaterial(oid storage.OID) (*Material, error)
	State(oid storage.OID) (string, error)
	MaterialsInState(state string) ([]storage.OID, error)
	CountInState(state string) (uint64, error)
	CountMaterials(class string) (uint64, error)
	CountSteps(class string) (uint64, error)
	ScanMaterials(class string, fn func(*Material) error) error
	ScanAllMaterials(fn func(*Material) error) error
	SetMembers(oid storage.OID) ([]storage.OID, error)

	// Steps and history.
	GetStep(oid storage.OID) (*Step, error)
	ScanSteps(class string, fn func(*Step) error) error
	History(oid storage.OID) ([]HistoryEntry, error)
	StepsInvolving(oid storage.OID) ([]storage.OID, error)
	MostRecent(oid storage.OID, attr string) (Value, storage.OID, bool, error)
	MostRecentScan(oid storage.OID, attr string) (Value, storage.OID, bool, error)
	MostRecentAsOf(oid storage.OID, attr string, t int64) (Value, storage.OID, bool, error)
	AttrTimeline(oid storage.OID, attr string) ([]TimelineEntry, error)
	Dump() (DumpStats, error)
}

// Snapshot is one consistent read-only view of a store: every Reader call
// answers as of the same capture time, unaffected by concurrent writes.
// Snapshots are cheap (no copy — an atomic pointer capture plus an epoch
// pin) and must be Closed so the writer can reclaim superseded versions.
type Snapshot interface {
	Reader
	Close() error
}

// Store is the full LabBase surface consumed by the wire server, the
// deductive bridge, and the benchmark drivers. Both *DB (one storage
// manager) and the hash-partitioned *shard.Router (N shard servers behind
// one store) implement it, so every layer above labbase is shard-agnostic:
// storage.OID stays the public object handle either way.
//
// Implementations follow DB's concurrency contract: read entry points are
// lock-free snapshot captures and may run in parallel with anything;
// mutations are single-writer, and callers running several write
// transactions concurrently must serialize their Begin/Commit brackets.
// PutSteps is the one exception — called outside a transaction it owns its
// transactions and (on sharded stores) may be invoked from several
// goroutines at once.
type Store interface {
	Reader

	// Transactions.
	Begin() error
	Commit() error
	InTxn() bool
	Close() error

	// Snapshot captures a consistent read view (see Snapshot).
	Snapshot() (Snapshot, error)

	// StoreStats identifies the backing storage and aggregates its
	// counters (summed across shards on partitioned stores).
	StoreStats() (name string, st storage.Stats)

	// Schema definition.
	DefineMaterialClass(name, parent string) (ClassID, error)
	DefineAttr(name string, kind Kind) (AttrID, error)
	DefineStepClass(name string, attrs []AttrDef) (StepClassID, Version, error)
	DefineState(name string) (StateID, error)

	// Materials and sets.
	CreateMaterial(class, name, state string, validTime int64) (storage.OID, error)
	SetState(oid storage.OID, state string) error
	CreateMaterialSet(members []storage.OID) (storage.OID, error)

	// Steps.
	RecordStep(spec StepSpec) (storage.OID, error)
	PutSteps(specs []StepSpec) ([]storage.OID, error)
}

// IndexScanner is an optional Reader capability: walks that answer straight
// from the in-memory indexes, one OID at a time, with no record decode and
// no copy of the whole membership, so a caller that needs only the first
// few members stops the walk there. Both walks stop at the first error fn
// returns and return it.
//
// *Snap implements it, *DB through a snapshot held for the walk, and the
// shard stores shard-major. It is not part of Reader on purpose: readers
// that lack it — decorators that implement Reader method by method, a
// remote wire member — are served by WalkState and WalkClass, which fall
// back to Reader methods and produce the same OIDs in the same order.
type IndexScanner interface {
	// ScanStateIndex visits the materials in state in OID order, the
	// order MaterialsInState lists them.
	ScanStateIndex(state string, fn func(storage.OID) error) error
	// ScanClassExtent visits the materials whose class is exactly class
	// (subclasses excluded) in insertion order, the order ScanMaterials
	// visits them.
	ScanClassExtent(class string, fn func(storage.OID) error) error
}

// WalkState calls fn for each material in state, in OID order: through r's
// index walk when r is an IndexScanner, otherwise over MaterialsInState.
func WalkState(r Reader, state string, fn func(storage.OID) error) error {
	if is, ok := r.(IndexScanner); ok {
		return is.ScanStateIndex(state, fn)
	}
	oids, err := r.MaterialsInState(state)
	if err != nil {
		return err
	}
	for _, oid := range oids {
		if err := fn(oid); err != nil {
			return err
		}
	}
	return nil
}

// WalkClass calls fn for each material of exactly class, in insertion
// order: through r's extent walk when r is an IndexScanner, otherwise over
// ScanMaterials filtered to the class itself.
func WalkClass(r Reader, class string, fn func(storage.OID) error) error {
	if is, ok := r.(IndexScanner); ok {
		return is.ScanClassExtent(class, fn)
	}
	return r.ScanMaterials(class, func(m *Material) error {
		if m.Class != class {
			return nil
		}
		return fn(m.OID)
	})
}

// Sealer is an optional Store capability, the labbase face of
// storage.Sealer: Seal ends the open transaction and returns a wait for its
// durability, and Commit is Seal followed by that wait. A caller that
// serializes writers with a lock of its own (the wire server) holds it
// across Seal only, so the next writer runs while this one's flush is in
// flight, and acknowledges the write once durable returns.
//
// *DB implements it (and so a shard server's Member, which embeds one).
// Stores that lack it — decorators that implement Store method by method, a
// multi-shard store whose Commit spans several shards — are served by Seal
// below through their blocking Commit.
type Sealer interface {
	Seal() (durable func() error, err error)
}

// Seal ends s's transaction through s's Seal when s is a Sealer, otherwise
// through its blocking Commit, in which case durable is storage.NoWait.
func Seal(s Store) (durable func() error, err error) {
	if sl, ok := s.(Sealer); ok {
		return sl.Seal()
	}
	if err := s.Commit(); err != nil {
		return nil, err
	}
	return storage.NoWait, nil
}

var (
	_ Store        = (*DB)(nil)
	_ Snapshot     = (*Snap)(nil)
	_ IndexScanner = (*DB)(nil)
	_ IndexScanner = (*Snap)(nil)
	_ Sealer       = (*DB)(nil)
)

// StoreStats implements Store over the single storage manager.
func (db *DB) StoreStats() (string, storage.Stats) {
	return db.sm.Name(), db.sm.Stats()
}
