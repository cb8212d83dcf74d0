// Package shard partitions a LabBase across N independent labbase.DB
// instances, each with its own storage manager (its own pagefile, redo log
// and group-commit pipeline) and its own lock domain, served as cluster
// members behind a Router with the same labbase.Store surface as a single
// DB. Materials are routed by an FNV-1a
// hash of the material name; everything a step touches must live on one
// shard (see ErrCrossShard and DESIGN §12).
//
// OIDs stay plain storage.OID: the shard number is carved out of the high
// bits of the 56-bit per-segment index, so an OID is self-describing about
// which shard owns it and the wire protocol, client, and every layer above
// labbase are shard-agnostic. Shard 0's encoding is the identity, which is
// what makes a 1-shard cluster byte-identical to a plain labbase.DB —
// including on disk.
package shard

import (
	"fmt"

	"labflow/internal/storage"
)

// Shard-bit layout: storage.OID is segment(8) << 56 | index(56). The shard
// number occupies the top shardBits of the index (bits 48..55), leaving
// localBits of real per-segment index space per shard. Shard 0 therefore
// encodes as the identity, and global OIDs from different shards never
// collide.
const (
	shardBits = 8
	localBits = 56 - shardBits

	// MaxShards is the largest shard count the OID encoding can address.
	MaxShards = 1 << shardBits

	shardShift = localBits
	localMask  = (uint64(1) << localBits) - 1
	shardMask  = uint64(MaxShards-1) << shardShift
)

// ShardOfOID returns the shard number encoded in an OID. It does not
// validate the number against any particular shard count.
func ShardOfOID(oid storage.OID) int {
	return int(uint64(oid) >> shardShift & uint64(MaxShards-1))
}

// withShard returns oid with the shard number stamped into the shard bits.
// The caller guarantees the local index fits (see mapper.tag).
func withShard(oid storage.OID, shard int) storage.OID {
	return oid | storage.OID(uint64(shard)<<shardShift)
}

// withoutShard strips the shard bits, recovering the local OID the inner
// storage manager allocated.
func withoutShard(oid storage.OID) storage.OID {
	return oid &^ storage.OID(shardMask)
}

// mapper is the storage.Manager wrapper that gives each shard its slice of
// the OID space. OIDs handed out by Allocate* carry the shard number in
// their high index bits; OIDs coming back in through Read/Write/Free are
// validated to belong to this shard and stripped back to local form. The
// inner labbase.DB therefore persists global OIDs verbatim inside records
// (history entries, set members, indexes) with no translation layer, and a
// global OID presented to the wrong shard fails loudly as a missing object.
type mapper struct {
	inner storage.Manager
	shard int
}

var (
	_ storage.Manager = (*mapper)(nil)
	_ storage.Sealer  = (*mapper)(nil)
	_ storage.Updater = (*mapper)(nil)
)

// tag stamps the shard number into a freshly allocated local OID.
func (m *mapper) tag(oid storage.OID) (storage.OID, error) {
	if uint64(oid.Index()) > localMask {
		return storage.NilOID, fmt.Errorf("shard %d: segment %v local index space exhausted: %w",
			m.shard, oid.Segment(), storage.ErrSegmentFull)
	}
	return withShard(oid, m.shard), nil
}

// untag validates that a global OID belongs to this shard and strips the
// shard bits. A wrong-shard OID is reported as a missing object so callers'
// existing storage.ErrNoSuchObject handling applies; the message names both
// shards because this is how cross-shard references surface.
func (m *mapper) untag(oid storage.OID) (storage.OID, error) {
	if got := ShardOfOID(oid); got != m.shard {
		return storage.NilOID, fmt.Errorf("shard %d: %v belongs to shard %d: %w",
			m.shard, oid, got, storage.ErrNoSuchObject)
	}
	return withoutShard(oid), nil
}

func (m *mapper) Name() string { return m.inner.Name() }

func (m *mapper) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	oid, err := m.inner.Allocate(seg, data)
	if err != nil {
		return storage.NilOID, err
	}
	return m.tag(oid)
}

func (m *mapper) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	oid, err := m.inner.AllocateCluster(seg, data)
	if err != nil {
		return storage.NilOID, err
	}
	return m.tag(oid)
}

func (m *mapper) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	local, err := m.untag(near)
	if err != nil {
		return storage.NilOID, err
	}
	oid, err := m.inner.AllocateNear(local, data)
	if err != nil {
		return storage.NilOID, err
	}
	return m.tag(oid)
}

func (m *mapper) Read(oid storage.OID) ([]byte, error) {
	local, err := m.untag(oid)
	if err != nil {
		return nil, err
	}
	return m.inner.Read(local)
}

func (m *mapper) Write(oid storage.OID, data []byte) error {
	local, err := m.untag(oid)
	if err != nil {
		return err
	}
	return m.inner.Write(local, data)
}

// Update forwards storage.Updater the way Seal forwards storage.Sealer: in
// place when the inner manager can, by read and write when it cannot.
func (m *mapper) Update(oid storage.OID, fn func([]byte) error) error {
	local, err := m.untag(oid)
	if err != nil {
		return err
	}
	return storage.Update(m.inner, local, fn)
}

func (m *mapper) Free(oid storage.OID) error {
	local, err := m.untag(oid)
	if err != nil {
		return err
	}
	return m.inner.Free(local)
}

func (m *mapper) Root() (storage.OID, error) {
	oid, err := m.inner.Root()
	if err != nil || oid.IsNil() {
		return oid, err
	}
	return m.tag(oid)
}

func (m *mapper) SetRoot(oid storage.OID) error {
	if oid.IsNil() {
		return m.inner.SetRoot(oid)
	}
	local, err := m.untag(oid)
	if err != nil {
		return err
	}
	return m.inner.SetRoot(local)
}

func (m *mapper) Begin() error         { return m.inner.Begin() }
func (m *mapper) Commit() error        { return m.inner.Commit() }
func (m *mapper) Stats() storage.Stats { return m.inner.Stats() }
func (m *mapper) Close() error         { return m.inner.Close() }

// Seal forwards storage.Sealer, so the shard's labbase.DB seals through the
// mapper exactly as it would over the inner manager.
func (m *mapper) Seal() (func() error, error) { return storage.Seal(m.inner) }
