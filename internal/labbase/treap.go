package labbase

import (
	"cmp"

	"labflow/internal/storage"
)

// Persistent (path-copying) treaps back the in-memory access structures
// that snapshots share: the per-state material sets, the material name
// index, and the reverse involves index. An update copies only the O(log n)
// nodes on the root-to-key path; every other node is shared with older
// snapshots, so publishing a new database snapshot per write costs log-time
// and log-space instead of cloning whole maps.
//
// Nodes are immutable once they are reachable from a published snapshot:
// the writer builds new paths, swaps the root into the next snapshot, and
// never touches old nodes again. Readers therefore traverse without any
// synchronization.
//
// Priorities are derived deterministically from the key (no math/rand —
// the detrand analyzer forbids unseeded randomness, and identical runs
// must build identical trees so benchmark numbers stay reproducible).
type treapNode[K cmp.Ordered, V any] struct {
	key         K
	pri         uint64
	val         V
	left, right *treapNode[K, V]
}

// treapGet returns the value stored under key.
func treapGet[K cmp.Ordered, V any](n *treapNode[K, V], key K) (V, bool) {
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// treapPut returns the root of a treap equal to n with key bound to val,
// sharing all untouched nodes with n. pri must be the key's deterministic
// priority (oidPri/namePri).
func treapPut[K cmp.Ordered, V any](n *treapNode[K, V], key K, pri uint64, val V) *treapNode[K, V] {
	if n == nil {
		return &treapNode[K, V]{key: key, pri: pri, val: val}
	}
	c := *n
	switch {
	case key < n.key:
		c.left = treapPut(c.left, key, pri, val)
		if c.left.pri > c.pri {
			return treapRotateRight(&c)
		}
	case key > n.key:
		c.right = treapPut(c.right, key, pri, val)
		if c.right.pri > c.pri {
			return treapRotateLeft(&c)
		}
	default:
		c.val = val
	}
	return &c
}

// treapRotateRight lifts n's left child above n, in place. Neither node is
// snapshot-reachable: n is treapPut's private copy, and the lifted child was
// built by the same put (treapPut, the only caller, returns only nodes it
// allocated). The subtree moved across may be shared; it is only relinked.
func treapRotateRight[K cmp.Ordered, V any](n *treapNode[K, V]) *treapNode[K, V] {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

// treapRotateLeft is the mirror image of treapRotateRight.
func treapRotateLeft[K cmp.Ordered, V any](n *treapNode[K, V]) *treapNode[K, V] {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// treapDelete returns the root of a treap equal to n without key.
func treapDelete[K cmp.Ordered, V any](n *treapNode[K, V], key K) *treapNode[K, V] {
	if n == nil {
		return nil
	}
	c := *n
	switch {
	case key < n.key:
		c.left = treapDelete(c.left, key)
		return &c
	case key > n.key:
		c.right = treapDelete(c.right, key)
		return &c
	}
	return treapMerge(c.left, c.right)
}

// treapMerge joins two treaps where every key in a precedes every key in b.
func treapMerge[K cmp.Ordered, V any](a, b *treapNode[K, V]) *treapNode[K, V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.pri > b.pri {
		c := *a
		c.right = treapMerge(c.right, b)
		return &c
	}
	c := *b
	c.left = treapMerge(a, c.left)
	return &c
}

// treapAscend calls fn for every (key, value) pair in ascending key order.
func treapAscend[K cmp.Ordered, V any](n *treapNode[K, V], fn func(K, V) error) error {
	if n == nil {
		return nil
	}
	if err := treapAscend(n.left, fn); err != nil {
		return err
	}
	if err := fn(n.key, n.val); err != nil {
		return err
	}
	return treapAscend(n.right, fn)
}

// oidPri is the deterministic treap priority for an OID key (splitmix64's
// output mix — avalanching, so sequential OIDs still build balanced trees).
func oidPri(oid uint64) uint64 {
	x := oid + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// namePri is the deterministic treap priority for a string key (FNV-1a).
func namePri(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// invList is a persistent cons list of step OIDs, newest first — the value
// type of the reverse involves index. Structural sharing makes the per-step
// update O(1): recording a step prepends one node per involved material.
type invList struct {
	step storage.OID
	next *invList
	n    int // length including this node
}

// length is the nil-safe list length.
func (l *invList) length() int {
	if l == nil {
		return 0
	}
	return l.n
}

// invSteps materializes the list oldest-first, matching history order.
func (l *invList) invSteps() []storage.OID {
	if l == nil {
		return nil
	}
	out := make([]storage.OID, l.n)
	for i := l.n - 1; l != nil; i, l = i-1, l.next {
		out[i] = l.step
	}
	return out
}
