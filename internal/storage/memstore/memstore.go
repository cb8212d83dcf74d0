// Package memstore implements the main-memory storage managers — the
// "OStore-mm" and "Texas-mm" versions in the paper's Section-10 table:
// "versions without any persistent storage management, and running entirely
// in main memory."
//
// There are no pages, no faults and no backing-store size; the size column
// for these versions is blank in the paper's table and Stats.SizeBytes is 0
// here.
package memstore

import (
	"fmt"
	"sync"

	"labflow/internal/storage"
)

// Open returns a main-memory manager reporting under the given version name
// (for example "OStore-mm" or "Texas-mm").
func Open(name string) storage.Manager {
	return &store{
		name:    name,
		objects: make(map[storage.OID][]byte),
	}
}

type store struct {
	mu      sync.Mutex
	name    string
	objects map[storage.OID][]byte
	next    [storage.NumSegments]uint64
	root    storage.OID
	inTxn   bool
	closed  bool

	reads     uint64
	writes    uint64
	allocs    uint64
	liveBytes uint64
}

func (s *store) Name() string { return s.name }

func (s *store) requireTxn() error {
	if s.closed {
		return storage.ErrClosed
	}
	if !s.inTxn {
		return storage.ErrNoTransaction
	}
	return nil
}

func (s *store) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	if seg >= storage.NumSegments {
		return storage.NilOID, fmt.Errorf("memstore: bad segment %d", seg)
	}
	s.next[seg]++
	oid := storage.MakeOID(seg, s.next[seg])
	s.objects[oid] = append([]byte(nil), data...)
	s.liveBytes += uint64(len(data))
	s.allocs++
	return oid, nil
}

// AllocateCluster has no physical meaning in main memory; it allocates
// normally.
func (s *store) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	return s.Allocate(seg, data)
}

// AllocateNear has no physical meaning in main memory; it allocates in
// near's segment.
func (s *store) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	s.mu.Lock()
	_, ok := s.objects[near]
	s.mu.Unlock()
	if !ok {
		return storage.NilOID, fmt.Errorf("memstore: AllocateNear %v: %w", near, storage.ErrNoSuchObject)
	}
	return s.Allocate(near.Segment(), data)
}

func (s *store) Read(oid storage.OID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, storage.ErrClosed
	}
	data, ok := s.objects[oid]
	if !ok {
		return nil, fmt.Errorf("memstore: read %v: %w", oid, storage.ErrNoSuchObject)
	}
	s.reads++
	return append([]byte(nil), data...), nil
}

func (s *store) Write(oid storage.OID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	old, ok := s.objects[oid]
	if !ok {
		return fmt.Errorf("memstore: write %v: %w", oid, storage.ErrNoSuchObject)
	}
	s.objects[oid] = append([]byte(nil), data...)
	s.liveBytes += uint64(len(data)) - uint64(len(old))
	s.writes++
	return nil
}

// Update implements storage.Updater: fn changes the stored bytes
// themselves, under the mutex.
func (s *store) Update(oid storage.OID, fn func([]byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	data, ok := s.objects[oid]
	if !ok {
		return fmt.Errorf("memstore: update %v: %w", oid, storage.ErrNoSuchObject)
	}
	if err := fn(data); err != nil {
		return err
	}
	s.writes++
	return nil
}

func (s *store) Free(oid storage.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	old, ok := s.objects[oid]
	if !ok {
		return fmt.Errorf("memstore: free %v: %w", oid, storage.ErrNoSuchObject)
	}
	delete(s.objects, oid)
	s.liveBytes -= uint64(len(old))
	return nil
}

func (s *store) Root() (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.NilOID, storage.ErrClosed
	}
	return s.root, nil
}

func (s *store) SetRoot(oid storage.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	s.root = oid
	return nil
}

func (s *store) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrClosed
	}
	if s.inTxn {
		return fmt.Errorf("memstore: nested transaction")
	}
	s.inTxn = true
	return nil
}

func (s *store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrClosed
	}
	if !s.inTxn {
		return storage.ErrNoTransaction
	}
	s.inTxn = false
	return nil
}

func (s *store) Stats() storage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storage.Stats{
		Reads:       s.reads,
		Writes:      s.writes,
		Allocs:      s.allocs,
		SizeBytes:   0, // no persistent storage management
		LiveObjects: uint64(len(s.objects)),
		LiveBytes:   s.liveBytes,
	}
}

func (s *store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

var (
	_ storage.Manager = (*store)(nil)
	_ storage.Updater = (*store)(nil)
)
