// Package fixture exercises the snapshothygiene analyzer: methods on
// snapshot handle types (named Snap or ending in Snap) must be lock-free.
package fixture

import "sync"

type catalog struct {
	byState map[string]int
}

type dbState struct {
	epoch uint64
	cat   *catalog
}

type store struct {
	mu  sync.RWMutex
	cat *catalog
}

// Snap mirrors the shape of a labbase snapshot handle: a pinned immutable
// state and a back-pointer to the owning store.
type Snap struct {
	st *dbState
	db *store
}

// cleanRead is the contract working as intended: pure reads through the
// pinned state, locals freely mutated.
func (s *Snap) cleanRead(k string) int {
	total := 0
	seen := map[string]bool{}
	for name, n := range s.st.cat.byState {
		if name == k {
			total += n
		}
		seen[name] = true
	}
	return total
}

// lockedRead takes the store's lock from a snapshot method.
func (s *Snap) lockedRead() int {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return len(s.db.cat.byState)
}

// localLock shows the rule is about the read path being lock-free, not
// about whose mutex it is.
func (s *Snap) localLock() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return s.st.cat.byState["x"]
}

// groupSnap matches by suffix, covering handle types over several snapshots.
type groupSnap struct {
	snaps []*Snap
}

func (g *groupSnap) badShardRead() int {
	total := 0
	for _, s := range g.snaps {
		s.db.mu.RLock()
		total += len(s.db.cat.byState)
		s.db.mu.RUnlock()
	}
	return total
}

func (g *groupSnap) cleanShardRead(k string) int {
	total := 0
	for _, s := range g.snaps {
		total += s.cleanRead(k)
	}
	return total
}

// suppressed shows the escape hatch: a justified allow directive on each
// locking line.
func (s *Snap) suppressed() int {
	s.db.mu.RLock()         //lint:allow snapshothygiene reads live store state on purpose, not the capture
	defer s.db.mu.RUnlock() //lint:allow snapshothygiene reads live store state on purpose, not the capture
	return len(s.db.cat.byState)
}

// snapshotter is not a snapshot handle; its methods may lock.
type snapshotter struct {
	mu sync.Mutex
	st *dbState
}

func (w *snapshotter) publish(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.st.epoch = epoch
}
