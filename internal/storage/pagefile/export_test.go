package pagefile

import (
	"errors"

	"labflow/internal/storage"
)

// Entry returns the object-table entry behind oid, so an outside test can
// tell an in-place rewrite from a relocation.
func (s *Store) Entry(oid storage.OID) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadEntry(oid)
}

// Recount walks every segment's object table and returns the live objects
// and live bytes its entries name, each record's length read from its slot
// or its overflow stub: the superblock's running counts, recomputed.
func (s *Store) Recount() (objs, bytes uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for seg, sm := range s.super.segs {
		for index := uint64(1); index <= sm.nextIndex; index++ {
			e, err := s.loadEntry(storage.MakeOID(storage.SegmentID(seg), index))
			if errors.Is(err, storage.ErrNoSuchObject) {
				continue
			}
			if err != nil {
				return 0, 0, err
			}
			n, err := s.recordLen(e)
			if err != nil {
				return 0, 0, err
			}
			objs++
			bytes += uint64(n)
		}
	}
	return objs, bytes, nil
}

func (s *Store) recordLen(e uint64) (int, error) {
	if entryIsOverflow(e) {
		total, _, err := s.stubLocked(e)
		return total, err
	}
	f, err := s.pager.Pin(entryPage(e), ModeRead)
	if err != nil {
		return 0, err
	}
	defer s.pager.Unpin(f, false)
	raw, err := pageRead(f.Data, entrySlot(e))
	return len(raw), err
}
