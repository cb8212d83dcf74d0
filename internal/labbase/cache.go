package labbase

import (
	"sync/atomic"

	"labflow/internal/storage"
)

// oidCache keeps decoded hot records (materials, most-recent indexes) in
// memory so the tracking and query inner loops stop re-reading and
// re-decoding the same bytes.
//
// It is a direct-mapped table: a power-of-two array of slots, each an atomic
// pointer to an immutable {oid, val} entry, with the slot picked by the OID's
// low index bits. OIDs are dense per segment, so the newest len(slots)
// objects of a segment never collide; an older one is evicted by whichever
// newer OID shares its slot. Placement depends only on the call sequence, so
// sequential use is deterministic. That matters: cache hits skip
// storage-manager reads and therefore change the simulated fault counters.
//
// No lock anywhere: a hit is one atomic load. Writers (put, invalidate)
// always store a freshly allocated entry, so a slot's pointer changes on
// every writer update. getOrFill installs by CompareAndSwap against the
// pointer it loaded before running load, so a fill whose storage read may
// predate a writer's update never lands over it. Concurrent misses on one
// OID each read storage once; whichever fill installs first wins.
//
// A nil *oidCache is a valid, permanently-empty cache (caching disabled).
type oidCache[V any] struct {
	slots []atomic.Pointer[cacheEntry[V]]
	mask  uint64
}

type cacheEntry[V any] struct {
	oid storage.OID
	val V
}

// newOIDCache returns a cache of capacity slots rounded up to a power of two,
// or nil (disabled) when capacity <= 0.
func newOIDCache[V any](capacity int) *oidCache[V] {
	if capacity <= 0 {
		return nil
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &oidCache[V]{slots: make([]atomic.Pointer[cacheEntry[V]], n), mask: uint64(n - 1)}
}

func (c *oidCache[V]) slot(oid storage.OID) *atomic.Pointer[cacheEntry[V]] {
	return &c.slots[oid.Index()&c.mask]
}

// get returns the cached value for oid.
func (c *oidCache[V]) get(oid storage.OID) (V, bool) {
	if c != nil {
		if e := c.slot(oid).Load(); e != nil && e.oid == oid {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// getOrFill returns the cached value, loading it through load on a miss and
// installing the result unless a writer updated the slot meanwhile. Load
// errors are not cached.
func (c *oidCache[V]) getOrFill(oid storage.OID, load func() (V, error)) (V, error) {
	if c == nil {
		return load()
	}
	s := c.slot(oid)
	old := s.Load()
	if old != nil && old.oid == oid {
		return old.val, nil
	}
	v, err := load()
	if err == nil {
		s.CompareAndSwap(old, &cacheEntry[V]{oid: oid, val: v})
	}
	return v, err
}

// put inserts or refreshes an entry, evicting whatever shared its slot.
func (c *oidCache[V]) put(oid storage.OID, v V) {
	if c != nil {
		c.slot(oid).Store(&cacheEntry[V]{oid: oid, val: v})
	}
}

// invalidate empties oid's slot. It stores a fresh entry with the nil OID,
// which no lookup asks for, rather than nil: the slot's pointer must change
// even when it was already empty, or a fill that loaded nil before the
// writer's update could still install. Every write to a cached record must
// invalidate or refresh its entry — see DESIGN.md's cache invalidation rules.
func (c *oidCache[V]) invalidate(oid storage.OID) {
	if c != nil {
		c.slot(oid).Store(&cacheEntry[V]{})
	}
}
