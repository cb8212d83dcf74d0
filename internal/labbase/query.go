package labbase

import (
	"fmt"
	"math"
	"sort"

	"labflow/internal/storage"
)

// HistoryEntry is one event in a material's audit trail.
type HistoryEntry struct {
	Step      storage.OID
	ValidTime int64
}

// History returns the material's event history in insertion (transaction
// time) order, oldest first. Valid-time order may differ when steps were
// recorded out of order; see MostRecent.
func (db *DB) History(oid storage.OID) ([]HistoryEntry, error) {
	s := db.acquire()
	defer s.Close()
	return s.History(oid)
}

// History returns the material's event history as of the snapshot.
func (s *Snap) History(oid storage.OID) ([]HistoryEntry, error) {
	m, err := s.readMaterial(oid)
	if err != nil {
		return nil, err
	}
	// The result is sized on the first entry, once walk has checked the
	// count against the chain.
	out := []HistoryEntry{}
	err = s.db.walk(&historyChain, m.historyHead, m.historyCount, func(b []byte) error {
		if cap(out) == 0 {
			out = make([]HistoryEntry, 0, m.historyCount)
		}
		for ; len(b) >= historyEntrySize; b = b[historyEntrySize:] {
			out = append(out, historyEntryAt(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StepsInvolving returns the OIDs of every step that processed the material,
// in insertion order (oldest first) — the step projection of History served
// from the reverse involves index in O(result) instead of a history-chain
// walk.
func (db *DB) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	s := db.acquire()
	defer s.Close()
	return s.StepsInvolving(oid)
}

// StepsInvolving answers from the snapshot's reverse involves index.
func (s *Snap) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	if _, err := s.readMaterial(oid); err != nil {
		return nil, err
	}
	l, _ := treapGet(s.st.invRoot, uint64(oid))
	return l.invSteps(), nil
}

// MostRecent answers the benchmark's signature query: the value of attr on
// the most recent (by valid time) step that assigned it to the material.
// It uses the most-recent index — O(1) in history length — and returns the
// value, the step that produced it, and whether any step assigned the
// attribute at all.
func (db *DB) MostRecent(oid storage.OID, attr string) (Value, storage.OID, bool, error) {
	s := db.acquire()
	defer s.Close()
	return s.MostRecent(oid, attr)
}

// MostRecent answers the signature query as of the snapshot.
func (s *Snap) MostRecent(oid storage.OID, attr string) (Value, storage.OID, bool, error) {
	id, ok := s.st.cat.byAttrName[attr]
	if !ok {
		return Nil(), storage.NilOID, false, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
	}
	m, err := s.readMaterial(oid)
	if err != nil {
		return Nil(), storage.NilOID, false, err
	}
	if m.mrIndex.IsNil() {
		return Nil(), storage.NilOID, false, nil
	}
	data, err := s.readMR(m.mrIndex)
	if err != nil {
		return Nil(), storage.NilOID, false, err
	}
	i := mrFind(data, id)
	if i < 0 {
		return Nil(), storage.NilOID, false, nil
	}
	e := mrGet(data, i)
	v, ok, _, err := s.db.stepAttr(e.step, id, false)
	if err != nil {
		return Nil(), storage.NilOID, false, fmt.Errorf("labbase: most-recent step: %w", err)
	}
	if !ok {
		return Nil(), storage.NilOID, false, fmt.Errorf("labbase: most-recent index names step %v without attribute %q", e.step, attr)
	}
	return v, e.step, true, nil
}

// MostRecentScan answers the same query by scanning the full history — the
// correctness oracle for the index, and the cost the index saves. Among
// steps with equal valid time, the latest-inserted wins, matching the
// index's tie-break.
func (db *DB) MostRecentScan(oid storage.OID, attr string) (Value, storage.OID, bool, error) {
	s := db.acquire()
	defer s.Close()
	return s.MostRecentScan(oid, attr)
}

// MostRecentScan answers the oracle query as of the snapshot: the
// historical query as of the end of valid time.
func (s *Snap) MostRecentScan(oid storage.OID, attr string) (Value, storage.OID, bool, error) {
	return s.MostRecentAsOf(oid, attr, math.MaxInt64)
}

// MostRecentAsOf answers the historical form of the signature query: the
// value attr had *as of* valid time t — from the most recent step with
// ValidTime <= t that assigned it. Ties in valid time resolve to the
// latest-inserted step, consistent with MostRecent.
func (db *DB) MostRecentAsOf(oid storage.OID, attr string, t int64) (Value, storage.OID, bool, error) {
	s := db.acquire()
	defer s.Close()
	return s.MostRecentAsOf(oid, attr, t)
}

// MostRecentAsOf answers the historical query as of the snapshot.
func (s *Snap) MostRecentAsOf(oid storage.OID, attr string, t int64) (Value, storage.OID, bool, error) {
	id, ok := s.st.cat.byAttrName[attr]
	if !ok {
		return Nil(), storage.NilOID, false, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
	}
	hist, err := s.History(oid)
	if err != nil {
		return Nil(), storage.NilOID, false, err
	}
	// Stable sort by valid time keeps insertion order among ties; walking
	// from the back then prefers the latest-inserted of the newest steps.
	sort.SliceStable(hist, func(i, j int) bool { return hist[i].ValidTime < hist[j].ValidTime })
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].ValidTime > t {
			continue
		}
		v, ok, _, err := s.db.stepAttr(hist[i].Step, id, false)
		if err != nil {
			return Nil(), storage.NilOID, false, err
		}
		if ok {
			return v, hist[i].Step, true, nil
		}
	}
	return Nil(), storage.NilOID, false, nil
}

// TimelineEntry is one assignment of an attribute over a material's history.
type TimelineEntry struct {
	ValidTime int64
	Step      storage.OID
	Value     Value
}

// AttrTimeline returns every assignment of attr to the material, in valid
// time order (insertion order among equal valid times) — the event-calculus
// style view of the audit trail.
func (db *DB) AttrTimeline(oid storage.OID, attr string) ([]TimelineEntry, error) {
	s := db.acquire()
	defer s.Close()
	return s.AttrTimeline(oid, attr)
}

// AttrTimeline returns the attribute's assignment timeline as of the
// snapshot.
func (s *Snap) AttrTimeline(oid storage.OID, attr string) ([]TimelineEntry, error) {
	id, ok := s.st.cat.byAttrName[attr]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
	}
	hist, err := s.History(oid)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(hist, func(i, j int) bool { return hist[i].ValidTime < hist[j].ValidTime })
	var out []TimelineEntry
	for _, h := range hist {
		v, ok, _, err := s.db.stepAttr(h.Step, id, false)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, TimelineEntry{ValidTime: h.ValidTime, Step: h.Step, Value: v})
		}
	}
	return out, nil
}

// DumpStats summarizes a full database scan.
type DumpStats struct {
	Materials   uint64
	Steps       uint64 // history entries visited (batch steps count once per material)
	AttrValues  uint64
	HistoryRead uint64 // total history entries including duplicates
}

// Dump walks every material and its entire event history — the benchmark's
// archival scan. It touches each material record, each history chunk and
// each referenced step record, and returns volume statistics.
func (db *DB) Dump() (DumpStats, error) {
	s := db.acquire()
	defer s.Close()
	return s.Dump()
}

// Dump runs the archival scan against the snapshot.
func (s *Snap) Dump() (DumpStats, error) {
	var st DumpStats
	cat := s.st.cat
	cnt := s.st.cnt
	seen := make(map[storage.OID]struct{})
	for _, mc := range cat.materialClasses {
		err := s.db.scanExtent(mc.extentHead, cnt.matsByClass[mc.ID-1], func(moid storage.OID) error {
			st.Materials++
			hist, err := s.History(moid)
			if err != nil {
				return err
			}
			for _, h := range hist {
				st.HistoryRead++
				if _, dup := seen[h.Step]; dup {
					continue
				}
				seen[h.Step] = struct{}{}
				_, _, n, err := s.db.stepAttr(h.Step, 0, true)
				if err != nil {
					return err
				}
				st.Steps++
				st.AttrValues += uint64(n)
			}
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// StorageSchema returns the names of the fixed storage-schema classes, as in
// the paper's Table 1. The user schema evolves freely; the storage schema
// never changes.
func StorageSchema() []string {
	return []string{"sm_step", "sm_material", "material_set"}
}
