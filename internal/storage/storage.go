// Package storage defines the object-storage-manager abstraction that
// LabBase (the workflow wrapper) is built on, mirroring Architecture (C) of
// the LabFlow-1 paper: the benchmark's queries and updates are submitted to
// a workflow wrapper which stores its data through an interchangeable object
// storage manager.
//
// The repository provides four managers behind this interface:
//
//   - ostore:   a store whose misses all pass through one serialized, counted
//     read path (the page server), with a bounded buffer pool and a redo log
//     (the ObjectStore v3.0 analog),
//   - texas:    a persistent heap that makes pages resident on first touch
//     and writes dirty pages back at commit (the Texas v0.3 analog),
//   - texas+TC: the same manager with client-directed clustering enabled,
//   - memstore: a main-memory manager with no persistence (the "-mm"
//     versions in the paper's Section 10 table).
//
// Objects are uninterpreted byte records addressed by stable OIDs. An OID
// never changes even if the record grows and must be physically relocated;
// managers maintain a per-segment object table for that indirection, much as
// LabBase's persistent C++ pointers remain valid under ObjectStore.
package storage

import (
	"errors"
	"fmt"
)

// OID identifies a persistent object. The zero OID is the nil reference.
//
// The encoding is segment(8 bits) << 56 | index(56 bits), so an OID is
// self-describing about which segment owns it.
type OID uint64

// NilOID is the null object reference.
const NilOID OID = 0

// MakeOID builds an OID from a segment and a per-segment index. Index 0 is
// reserved so that NilOID is never a valid object.
func MakeOID(seg SegmentID, index uint64) OID {
	return OID(uint64(seg)<<56 | (index & indexMask))
}

const indexMask = (uint64(1) << 56) - 1

// Segment returns the segment that owns the object.
func (o OID) Segment() SegmentID { return SegmentID(uint64(o) >> 56) }

// Index returns the per-segment object index.
func (o OID) Index() uint64 { return uint64(o) & indexMask }

// IsNil reports whether the OID is the null reference.
func (o OID) IsNil() bool { return o == NilOID }

// String implements fmt.Stringer.
func (o OID) String() string {
	if o.IsNil() {
		return "oid(nil)"
	}
	return fmt.Sprintf("oid(%s:%d)", o.Segment(), o.Index())
}

// SegmentID names one of the four LabBase storage segments. The paper:
// "LabBase uses four such segments, three of which contain relatively small
// amounts of frequently accessed data and one of which contains a relatively
// large amount of infrequently accessed data."
type SegmentID uint8

const (
	// SegCatalog holds the schema catalog: classes, attributes, states.
	// Small and hot.
	SegCatalog SegmentID = iota
	// SegMaterial holds sm_material records. Small and hot.
	SegMaterial
	// SegIndex holds access structures: most-recent indexes, extent chunks.
	// Small and hot.
	SegIndex
	// SegHistory holds sm_step records, history chunks and material sets —
	// the event history. Large and cold.
	SegHistory
	// NumSegments is the number of storage segments.
	NumSegments
)

// String implements fmt.Stringer.
func (s SegmentID) String() string {
	switch s {
	case SegCatalog:
		return "catalog"
	case SegMaterial:
		return "material"
	case SegIndex:
		return "index"
	case SegHistory:
		return "history"
	default:
		return fmt.Sprintf("segment(%d)", uint8(s))
	}
}

// Errors shared by all managers.
var (
	// ErrNoSuchObject is returned when an OID does not name a live object.
	ErrNoSuchObject = errors.New("storage: no such object")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("storage: manager is closed")
	// ErrSegmentFull is returned when a segment's object table is exhausted.
	ErrSegmentFull = errors.New("storage: segment object table full")
	// ErrNoTransaction is returned when a mutation happens outside Begin/Commit.
	ErrNoTransaction = errors.New("storage: no transaction in progress")
)

// Stats reports the resource counters the benchmark tables are built from.
// Faults is the portable analog of the paper's "majflt" column: the number
// of pages that had to be made resident from the backing store.
type Stats struct {
	// Faults counts pages loaded (made resident) from the backing store.
	Faults uint64
	// PageWrites counts pages written back to the backing store.
	PageWrites uint64
	// Reads, Writes and Allocs count object-level operations.
	Reads  uint64
	Writes uint64
	Allocs uint64
	// LockWaits is always zero: no manager blocks on a lock. It stays
	// because the benchmark's trace and the OpStats wire payload carry it.
	LockWaits uint64
	// SizeBytes is the footprint of the backing store (0 for main-memory
	// managers, matching the "—" entries in the paper's table).
	SizeBytes uint64
	// LiveObjects is the number of live objects.
	LiveObjects uint64
	// LiveBytes is the sum of live record payload sizes.
	LiveBytes uint64
}

// Sub returns s - prev, field by field, for interval accounting. Gauge
// fields (SizeBytes, LiveObjects, LiveBytes) keep their current value.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Faults:      s.Faults - prev.Faults,
		PageWrites:  s.PageWrites - prev.PageWrites,
		Reads:       s.Reads - prev.Reads,
		Writes:      s.Writes - prev.Writes,
		Allocs:      s.Allocs - prev.Allocs,
		LockWaits:   s.LockWaits - prev.LockWaits,
		SizeBytes:   s.SizeBytes,
		LiveObjects: s.LiveObjects,
		LiveBytes:   s.LiveBytes,
	}
}

// Add returns s + other, field by field, gauges included: the totals of two
// managers side by side (the shards of a partitioned store).
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Faults:      s.Faults + other.Faults,
		PageWrites:  s.PageWrites + other.PageWrites,
		Reads:       s.Reads + other.Reads,
		Writes:      s.Writes + other.Writes,
		Allocs:      s.Allocs + other.Allocs,
		LockWaits:   s.LockWaits + other.LockWaits,
		SizeBytes:   s.SizeBytes + other.SizeBytes,
		LiveObjects: s.LiveObjects + other.LiveObjects,
		LiveBytes:   s.LiveBytes + other.LiveBytes,
	}
}

// Manager is the object-storage-manager interface.
//
// Transactions are single-writer: Begin/Commit bracket a unit of work, and
// mutations outside a transaction return ErrNoTransaction. Managers are safe
// for concurrent use by multiple goroutines unless their documentation says
// otherwise (the texas manager, like the original, does not support
// concurrent access).
type Manager interface {
	// Name returns the version name used in reports, e.g. "OStore".
	Name() string

	// Allocate stores a new object in the given segment and returns its OID.
	Allocate(seg SegmentID, data []byte) (OID, error)

	// AllocateCluster stores a new object at the start of a fresh physical
	// cluster (on a shared start page until it outgrows it, where the
	// manager supports placement), which AllocateNear calls anchored at it
	// then extend. LabBase starts one
	// cluster per root material so a whole clone family's audit trail stays
	// physically together. Managers without placement control treat this
	// exactly like Allocate.
	AllocateCluster(seg SegmentID, data []byte) (OID, error)

	// AllocateNear stores a new object as physically close to near as the
	// manager can manage: on near's page if it fits, else on the cluster's
	// successor pages, extending the cluster when they are all full.
	// Managers without clustering support treat this exactly like Allocate
	// into near's segment. This is the hook behind the paper's Texas+TC
	// version ("additional object clustering implemented in client code").
	AllocateNear(near OID, data []byte) (OID, error)

	// Read returns the object's current contents. The returned slice is a
	// private copy owned by the caller.
	Read(oid OID) ([]byte, error)

	// Write replaces the object's contents. Records may grow; the manager
	// relocates them transparently and the OID stays valid.
	Write(oid OID, data []byte) error

	// Free deletes the object.
	Free(oid OID) error

	// Root returns the database root OID (NilOID if unset) and SetRoot
	// durably records it. LabBase stores its catalog behind the root.
	Root() (OID, error)
	SetRoot(oid OID) error

	// Begin starts a transaction; Commit makes its effects durable.
	Begin() error
	Commit() error

	// Stats returns cumulative resource counters.
	Stats() Stats

	// Close releases all resources. Persistent managers flush first, and
	// wait out every sealed transaction's durability (see Sealer).
	Close() error
}

// Sealer is an optional Manager capability: Commit in two halves. Seal ends
// the open transaction — its effects are fixed, ordered after every earlier
// seal, and the next Begin may run — and returns durable, which blocks until
// those effects are durable and reports whether they became so. Commit is
// Seal followed by durable(). A caller that holds a lock of its own across
// Commit can hold it across Seal only, so the next writer runs while this
// one's flush is in flight.
//
// It is not part of Manager on purpose: decorators that implement Manager
// method by method hide it, and Seal below falls back to their Commit.
type Sealer interface {
	Seal() (durable func() error, err error)
}

// Seal ends m's transaction through m's Seal when m is a Sealer, otherwise
// through its blocking Commit, in which case durable is NoWait.
func Seal(m Manager) (durable func() error, err error) {
	if s, ok := m.(Sealer); ok {
		return s.Seal()
	}
	if err := m.Commit(); err != nil {
		return nil, err
	}
	return NoWait, nil
}

// NoWait is the durable wait of a transaction that is durable already.
func NoWait() error { return nil }
