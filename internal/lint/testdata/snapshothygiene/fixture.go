// Package fixture exercises the snapshothygiene analyzer: methods on
// snapshot handle types (named Snap or ending in Snap) must be lock-free
// and must not mutate snapshot-reachable state.
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
// state, a back-pointer to the owning store, and handle-local bookkeeping.
type Snap struct {
	st     *dbState
	db     *store
	closed bool
	hits   int
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

// handleBookkeeping writes only direct fields of the handle itself, which
// is allowed: Close-style lifecycle state lives on the handle, not in the
// shared snapshot.
func (s *Snap) handleBookkeeping() {
	s.closed = true
	s.hits++
	s.st = nil
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

// mutatesPinnedState assigns through the pinned state — the epoch and
// catalog pointer are shared with every other reader of this version.
func (s *Snap) mutatesPinnedState() {
	s.st.epoch = 99
	s.db.cat = nil
	s.st.epoch++
}

// mutatesSharedMap writes an element of a snapshot-reachable map.
func (s *Snap) mutatesSharedMap(k string) {
	s.st.cat.byState[k] = 1
	s.db.cat.byState[k]++
}

// derefWrite overwrites shared state through a pointer chain.
func (s *Snap) derefWrite(v dbState) {
	*s.st = v
}

// localsAreFine: chains rooted at locals or parameters are not the
// snapshot's problem.
func (s *Snap) localsAreFine(other *store) {
	c := &catalog{byState: map[string]int{}}
	c.byState["x"] = 1
	other.cat = c
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

// suppressed shows the escape hatch: a justified allow directive.
func (s *Snap) suppressed() {
	//lint:allow snapshothygiene refreshing a private prefetch buffer owned by this handle
	s.st.epoch = 0
}

// snapshotter is not a snapshot handle; its methods may lock and mutate.
type snapshotter struct {
	mu sync.Mutex
	st *dbState
}

func (w *snapshotter) publish(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.st.epoch = epoch
}
