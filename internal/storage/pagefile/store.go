package pagefile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Superblock layout (page 0).
//
//	0:8     magic "LFSB0001"
//	8:12    page size
//	12:20   root OID
//	20:24   free-page chain head (0 = none)
//	24:88   per segment (4 x 16): dirPage u32, fillPage u32, nextIndex u64
//	88:96   live objects
//	96:104  live bytes
const (
	superMagic   = "LFSB0001"
	dirEntries   = PageSize / 4 // table pages per segment directory
	tableEntries = PageSize / 8 // object-table entries per table page

	entryOverflow  = uint64(1) << 63
	entryTombstone = math.MaxUint64
)

type segMeta struct {
	dirPage   PageID // directory of object-table pages (0 = not yet allocated)
	fillPage  PageID // current allocation target (0 = none)
	nextIndex uint64 // last issued object index
}

type superblock struct {
	root     storage.OID
	freePage PageID
	segs     [storage.NumSegments]segMeta
	liveObj  uint64
	liveByte uint64
}

// Store implements storage.Manager over a Pager: stable logical OIDs through
// per-segment object tables, slotted-page records, overflow chains for large
// records, and a free-page list.
//
// Store serializes object-level operations with a single mutex, and no
// pager takes page locks below it: together with the writer mutex and MVCC
// snapshots above (DESIGN §9), that is all the concurrency control there
// is. This matches the benchmark's single-writer workload while
// keeping multi-client page traffic well-formed.
//
// The one thing the mutex is not held across is the pager's commit. Seal
// closes the transaction under mu, marks the store sealing and lets go, so
// Read, Root and Stats run against the pager's pool while pager.Commit runs
// (a pager must allow Pin/Unpin/Stats concurrently with its own Commit; both
// managers' pagers lock internally). Single-writer discipline does not lean
// on the mutex for that stretch: mutations are refused because no
// transaction is open, and Begin and Close wait for sealing to clear. What
// they wait for is the seal, not the durability: a pager whose Commit
// returns a durable wait (ostore's) lets the next transaction begin while
// the previous one's log write and fsync are still in flight, and Close
// waits for those in the pager.
type Store struct {
	mu     sync.Mutex
	name   string
	pager  Pager
	super  superblock
	inTxn  bool
	closed bool

	// sealing is true while a Seal is inside pager.Commit with mu released;
	// sealed (on mu) wakes the Begin or Close waiting it out.
	sealing bool
	sealed  sync.Cond

	// slack maps a record size to the heap capacity reserved for it; nil
	// reserves exactly the record size. The texas manager installs its
	// heap allocator's size classes here, which is why its database files
	// are larger than ostore's for identical data — as in the paper.
	slack func(int) int

	// Cluster placement (DESIGN §5). start is each segment's shared start
	// page, where AllocateCluster puts a new cluster's first record. A
	// cluster is named by that record's location (an entry without flags);
	// tags maps every start page to, per slot, 1 + the slot of the first
	// record of the cluster the slot's record belongs to (0 = untagged), so
	// an AllocateNear anchored there knows whose record it extends. tails
	// holds the first page of its own of each cluster that outgrew its start
	// page, and only of those. succ chains a cluster's own pages: when one
	// fills, the overflow page is recorded as its successor, and every
	// AllocateNear anchored on an owned page funnels down the chain, so
	// owned pages fill completely before a cluster grows. All of these are
	// placement hints kept in memory: after a reopen a former start page
	// counts as an owned page, and extensions start new chains.
	start [storage.NumSegments]PageID
	tags  map[PageID][]uint16
	tails map[uint64]PageID
	succ  map[PageID]PageID

	reads  uint64
	writes uint64
	allocs uint64
}

// maxClusterHops bounds the successor-chain walk.
const maxClusterHops = 64

// clusterReserve is the space a shared start page keeps free for the next
// records of the clusters already on it: AllocateCluster starts a cluster
// there only if that much stays free after its first record.
const clusterReserve = PageSize / 4

// New opens (or formats) a store named name over the pager. A fresh backing
// store is formatted with an empty superblock. slack, if non-nil, maps a
// record size to the reserved heap capacity (allocator size classes).
func New(name string, pager Pager, slack func(int) int) (*Store, error) {
	s := &Store{name: name, pager: pager, slack: slack,
		tags: make(map[PageID][]uint16), tails: make(map[uint64]PageID), succ: make(map[PageID]PageID)}
	s.sealed.L = &s.mu
	if err := pager.Begin(); err != nil {
		return nil, fmt.Errorf("pagefile: format begin: %w", err)
	}
	if pager.SizeBytes() == 0 {
		f, err := pager.AllocPage()
		if err != nil {
			return nil, fmt.Errorf("pagefile: allocate superblock: %w", err)
		}
		if f.ID != 0 {
			return nil, fmt.Errorf("pagefile: superblock landed on page %d, want 0", f.ID)
		}
		s.writeSuper(f.Data)
		pager.Unpin(f, true)
	} else {
		f, err := pager.Pin(0, ModeRead)
		if err != nil {
			return nil, fmt.Errorf("pagefile: read superblock: %w", err)
		}
		err = s.readSuper(f.Data)
		pager.Unpin(f, false)
		if err != nil {
			return nil, err
		}
	}
	durable, err := pager.Commit()
	if err == nil && durable != nil {
		err = durable()
	}
	if err != nil {
		return nil, fmt.Errorf("pagefile: format commit: %w", err)
	}
	return s, nil
}

func (s *Store) writeSuper(p []byte) {
	clear(p[:PageSize])
	copy(p[0:8], superMagic)
	binary.LittleEndian.PutUint32(p[8:12], PageSize)
	binary.LittleEndian.PutUint64(p[12:20], uint64(s.super.root))
	binary.LittleEndian.PutUint32(p[20:24], uint32(s.super.freePage))
	for i := range s.super.segs {
		base := 24 + i*16
		binary.LittleEndian.PutUint32(p[base:], uint32(s.super.segs[i].dirPage))
		binary.LittleEndian.PutUint32(p[base+4:], uint32(s.super.segs[i].fillPage))
		binary.LittleEndian.PutUint64(p[base+8:], s.super.segs[i].nextIndex)
	}
	binary.LittleEndian.PutUint64(p[88:96], s.super.liveObj)
	binary.LittleEndian.PutUint64(p[96:104], s.super.liveByte)
}

func (s *Store) readSuper(p []byte) error {
	if string(p[0:8]) != superMagic {
		return fmt.Errorf("pagefile: bad superblock magic %q", p[0:8])
	}
	if ps := binary.LittleEndian.Uint32(p[8:12]); ps != PageSize {
		return fmt.Errorf("pagefile: page size mismatch: file %d, build %d", ps, PageSize)
	}
	s.super.root = storage.OID(binary.LittleEndian.Uint64(p[12:20]))
	s.super.freePage = PageID(binary.LittleEndian.Uint32(p[20:24]))
	for i := range s.super.segs {
		base := 24 + i*16
		s.super.segs[i].dirPage = PageID(binary.LittleEndian.Uint32(p[base:]))
		s.super.segs[i].fillPage = PageID(binary.LittleEndian.Uint32(p[base+4:]))
		s.super.segs[i].nextIndex = binary.LittleEndian.Uint64(p[base+8:])
	}
	s.super.liveObj = binary.LittleEndian.Uint64(p[88:96])
	s.super.liveByte = binary.LittleEndian.Uint64(p[96:104])
	return nil
}

func (s *Store) flushSuper() error {
	f, err := s.pager.Pin(0, ModeWrite)
	if err != nil {
		return fmt.Errorf("pagefile: pin superblock: %w", err)
	}
	s.writeSuper(f.Data)
	s.pager.Unpin(f, true)
	return nil
}

// Name implements storage.Manager.
func (s *Store) Name() string { return s.name }

// allocPageRaw takes a page from the free chain or grows the backing store.
// The page is returned pinned for write with undefined contents.
func (s *Store) allocPageRaw() (*Frame, error) {
	if s.super.freePage != 0 {
		id := s.super.freePage
		f, err := s.pager.Pin(id, ModeWrite)
		if err != nil {
			return nil, fmt.Errorf("pagefile: pin free page %d: %w", id, err)
		}
		s.super.freePage = PageID(binary.LittleEndian.Uint32(f.Data[0:4]))
		return f, nil
	}
	return s.pager.AllocPage()
}

// releasePage puts a page on the free chain.
func (s *Store) releasePage(id PageID) error {
	f, err := s.pager.Pin(id, ModeWrite)
	if err != nil {
		return fmt.Errorf("pagefile: pin page %d for release: %w", id, err)
	}
	clear(f.Data[:PageSize])
	binary.LittleEndian.PutUint32(f.Data[0:4], uint32(s.super.freePage))
	s.pager.Unpin(f, true)
	s.super.freePage = id
	return nil
}

// entryLoc resolves an object index to its table-page location, allocating
// directory and table pages on demand when alloc is true.
func (s *Store) entryLoc(seg storage.SegmentID, index uint64, alloc bool) (PageID, int, error) {
	if index == 0 {
		return 0, 0, storage.ErrNoSuchObject
	}
	idx := index - 1
	dirSlot := int(idx / tableEntries)
	tblSlot := int(idx % tableEntries)
	if dirSlot >= dirEntries {
		return 0, 0, storage.ErrSegmentFull
	}
	sm := &s.super.segs[seg]
	if sm.dirPage == 0 {
		if !alloc {
			return 0, 0, storage.ErrNoSuchObject
		}
		f, err := s.allocPageRaw()
		if err != nil {
			return 0, 0, err
		}
		clear(f.Data[:PageSize])
		sm.dirPage = f.ID
		s.pager.Unpin(f, true)
	}
	df, err := s.pager.Pin(sm.dirPage, ModeRead)
	if err != nil {
		return 0, 0, fmt.Errorf("pagefile: pin directory page: %w", err)
	}
	tbl := PageID(binary.LittleEndian.Uint32(df.Data[dirSlot*4:]))
	s.pager.Unpin(df, false)
	if tbl == 0 {
		if !alloc {
			return 0, 0, storage.ErrNoSuchObject
		}
		tf, err := s.allocPageRaw()
		if err != nil {
			return 0, 0, err
		}
		clear(tf.Data[:PageSize])
		tbl = tf.ID
		s.pager.Unpin(tf, true)
		df, err = s.pager.Pin(sm.dirPage, ModeWrite)
		if err != nil {
			return 0, 0, fmt.Errorf("pagefile: pin directory page: %w", err)
		}
		binary.LittleEndian.PutUint32(df.Data[dirSlot*4:], uint32(tbl))
		s.pager.Unpin(df, true)
	}
	return tbl, tblSlot, nil
}

func (s *Store) loadEntry(oid storage.OID) (uint64, error) {
	if oid.IsNil() || oid.Segment() >= storage.NumSegments {
		return 0, storage.ErrNoSuchObject
	}
	tbl, slot, err := s.entryLoc(oid.Segment(), oid.Index(), false)
	if err != nil {
		return 0, err
	}
	f, err := s.pager.Pin(tbl, ModeRead)
	if err != nil {
		return 0, fmt.Errorf("pagefile: pin table page: %w", err)
	}
	e := binary.LittleEndian.Uint64(f.Data[slot*8:])
	s.pager.Unpin(f, false)
	if e == 0 || e == entryTombstone {
		return 0, storage.ErrNoSuchObject
	}
	return e, nil
}

func (s *Store) storeEntry(oid storage.OID, e uint64) error {
	tbl, slot, err := s.entryLoc(oid.Segment(), oid.Index(), true)
	if err != nil {
		return err
	}
	f, err := s.pager.Pin(tbl, ModeWrite)
	if err != nil {
		return fmt.Errorf("pagefile: pin table page: %w", err)
	}
	binary.LittleEndian.PutUint64(f.Data[slot*8:], e)
	s.pager.Unpin(f, true)
	return nil
}

func makeEntry(page PageID, slot int, overflow bool) uint64 {
	e := uint64(page)<<16 | uint64(slot)
	if overflow {
		e |= entryOverflow
	}
	return e
}

func entryPage(e uint64) PageID { return PageID((e &^ entryOverflow) >> 16) }
func entrySlot(e uint64) int    { return int(e & 0xFFFF) }
func entryIsOverflow(e uint64) bool {
	return e&entryOverflow != 0
}

// capacityFor applies the allocator's size classes to a record size.
func (s *Store) capacityFor(n int) int {
	if s.slack == nil {
		return n
	}
	if c := s.slack(n); c > n {
		return c
	}
	return n
}

// placeInline stores an inline-sized record in seg, preferring the segment's
// fill page, and returns its location.
func (s *Store) placeInline(seg storage.SegmentID, data []byte) (PageID, int, error) {
	capacity := s.capacityFor(len(data))
	sm := &s.super.segs[seg]
	if sm.fillPage != 0 {
		f, err := s.pager.Pin(sm.fillPage, ModeWrite)
		if err != nil {
			return 0, 0, fmt.Errorf("pagefile: pin fill page: %w", err)
		}
		slot, ok, err := pageInsert(f.Data, data, capacity)
		s.pager.Unpin(f, ok)
		if err != nil {
			return 0, 0, fmt.Errorf("pagefile: fill page %d: %w", sm.fillPage, err)
		}
		if ok {
			return sm.fillPage, slot, nil
		}
	}
	id, slot, err := s.placeFresh(seg, data, capacity)
	if err != nil {
		return 0, 0, err
	}
	sm.fillPage = id
	return id, slot, nil
}

// placeFresh stores data in a newly allocated slotted page of seg and
// returns the page and slot.
func (s *Store) placeFresh(seg storage.SegmentID, data []byte, capacity int) (PageID, int, error) {
	f, err := s.allocPageRaw()
	if err != nil {
		return 0, 0, err
	}
	initPage(f.Data, uint8(seg), 0)
	id := f.ID
	slot, ok, err := pageInsert(f.Data, data, capacity)
	if err == nil && !ok {
		err = fmt.Errorf("pagefile: record of %d bytes does not fit a fresh page", len(data))
	}
	s.pager.Unpin(f, err == nil)
	return id, slot, err
}

// placeOverflow stores a large record across extent pages plus a stub.
func (s *Store) placeOverflow(seg storage.SegmentID, data []byte) (PageID, int, error) {
	pages, err := s.writeExtents(seg, data, nil)
	if err != nil {
		return 0, 0, err
	}
	stub := encodeStub(len(data), pages)
	return s.placeInline(seg, stub)
}

// writeExtents writes data across overflow pages, reusing the given pages
// first and allocating or releasing pages to match the required count.
func (s *Store) writeExtents(seg storage.SegmentID, data []byte, reuse []PageID) ([]PageID, error) {
	need := (len(data) + overflowCap - 1) / overflowCap
	if need == 0 {
		need = 1
	}
	pages := make([]PageID, 0, need)
	for i := 0; i < need; i++ {
		var f *Frame
		var err error
		if i < len(reuse) {
			f, err = s.pager.Pin(reuse[i], ModeWrite)
		} else {
			f, err = s.allocPageRaw()
		}
		if err != nil {
			return nil, fmt.Errorf("pagefile: overflow extent: %w", err)
		}
		initPage(f.Data, uint8(seg), flagOverflow)
		lo := i * overflowCap
		hi := min(lo+overflowCap, len(data))
		copy(f.Data[pageHdrSize:], data[lo:hi])
		pages = append(pages, f.ID)
		s.pager.Unpin(f, true)
	}
	for _, id := range reuse[min(need, len(reuse)):] {
		if err := s.releasePage(id); err != nil {
			return nil, err
		}
	}
	return pages, nil
}

func encodeStub(total int, pages []PageID) []byte {
	e := rec.NewEncoder(8 + 5*len(pages))
	e.Uint(uint64(total))
	e.Uint(uint64(len(pages)))
	for _, p := range pages {
		e.Uint(uint64(p))
	}
	return e.Bytes()
}

func decodeStub(b []byte) (total int, pages []PageID, err error) {
	d := rec.NewDecoder(b)
	total = int(d.Uint())
	n := int(d.Uint())
	// Accept exactly what writeExtents writes: max(1, ceil(total/overflowCap))
	// extents. Each page ID takes at least one byte, which bounds n before
	// anything is allocated, and n in turn bounds the total readOverflow
	// allocates for.
	if d.Err() != nil || n < 1 || n > len(b) || total < 0 || total > n*overflowCap ||
		n != max(1, (total+overflowCap-1)/overflowCap) {
		return 0, nil, fmt.Errorf("pagefile: corrupt overflow stub")
	}
	pages = make([]PageID, n)
	for i := range pages {
		pages[i] = PageID(d.Uint())
	}
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("pagefile: corrupt overflow stub: %w", err)
	}
	return total, pages, nil
}

// stubLocked decodes the overflow stub behind entry e where it lies in its
// page; a corrupt stub is reported with its page number.
func (s *Store) stubLocked(e uint64) (total int, pages []PageID, err error) {
	f, err := s.pager.Pin(entryPage(e), ModeRead)
	if err != nil {
		return 0, nil, err
	}
	defer s.pager.Unpin(f, false)
	raw, err := pageRead(f.Data, entrySlot(e))
	if err == nil {
		total, pages, err = decodeStub(raw)
	}
	if err != nil {
		return 0, nil, pageErr(e, err)
	}
	return total, pages, nil
}

// pageErr names the page behind entry e in a slot-level error.
func pageErr(e uint64, err error) error {
	return fmt.Errorf("page %d: %w", entryPage(e), err)
}

func (s *Store) readOverflow(total int, pages []PageID) ([]byte, error) {
	out := make([]byte, 0, total)
	for _, id := range pages {
		f, err := s.pager.Pin(id, ModeRead)
		if err != nil {
			return nil, fmt.Errorf("pagefile: read overflow extent %d: %w", id, err)
		}
		remain := total - len(out)
		out = append(out, f.Data[pageHdrSize:pageHdrSize+min(remain, overflowCap)]...)
		s.pager.Unpin(f, false)
	}
	if len(out) != total {
		return nil, fmt.Errorf("pagefile: overflow record truncated: have %d of %d bytes", len(out), total)
	}
	return out, nil
}

func (s *Store) requireTxn() error {
	if s.closed {
		return storage.ErrClosed
	}
	if !s.inTxn {
		return storage.ErrNoTransaction
	}
	return nil
}

// Allocate implements storage.Manager.
func (s *Store) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocateLocked(seg, data)
}

func (s *Store) allocateLocked(seg storage.SegmentID, data []byte) (storage.OID, error) {
	if err := s.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	if seg >= storage.NumSegments {
		return storage.NilOID, fmt.Errorf("pagefile: bad segment %d", seg)
	}
	var page PageID
	var slot int
	var err error
	overflow := len(data) > MaxInline
	if overflow {
		page, slot, err = s.placeOverflow(seg, data)
	} else {
		page, slot, err = s.placeInline(seg, data)
	}
	if err != nil {
		return storage.NilOID, err
	}
	sm := &s.super.segs[seg]
	sm.nextIndex++
	oid := storage.MakeOID(seg, sm.nextIndex)
	if err := s.storeEntry(oid, makeEntry(page, slot, overflow)); err != nil {
		return storage.NilOID, err
	}
	s.super.liveObj++
	s.super.liveByte += uint64(len(data))
	s.allocs++
	return oid, nil
}

// AllocateNear implements storage.Manager: it places the new record on
// near's page if it fits, else on the cluster's own pages (for an anchor on
// a shared start page, from the cluster's tail on), claiming a fresh page
// when they are all full. This is the clustering hook used by the Texas+TC
// configuration.
func (s *Store) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	e, err := s.loadEntry(near)
	if err != nil {
		return storage.NilOID, fmt.Errorf("pagefile: AllocateNear %v: %w", near, err)
	}
	seg := near.Segment()
	if len(data) > MaxInline {
		return s.allocateLocked(seg, data)
	}

	page := entryPage(e)
	slot, ok, err := s.tryClusterPage(page, data, 0)
	if err != nil {
		return storage.NilOID, err
	}
	// An anchor on a shared start page extends its own cluster: on the start
	// page while it has room, then on the cluster's tail.
	if c := s.clusterAt(page, entrySlot(e)); c != 0 {
		if ok {
			s.tag(page, slot, entrySlot(c))
			return s.finishAlloc(seg, page, slot, len(data))
		}
		tail, exists := s.tails[c]
		if !exists {
			if page, slot, err = s.placeFresh(seg, data, len(data)); err != nil {
				return storage.NilOID, err
			}
			s.tails[c] = page
			return s.finishAlloc(seg, page, slot, len(data))
		}
		page = tail
		if slot, ok, err = s.tryClusterPage(page, data, 0); err != nil {
			return storage.NilOID, err
		}
	}

	// Walk the cluster's own pages: the anchor's page (or tail), then its
	// successor chain. All records anchored anywhere in a cluster funnel into
	// the same chain, so its pages fill completely before it claims a new one.
	for hops := 0; !ok && hops < maxClusterHops; hops++ {
		next, exists := s.succ[page]
		if !exists {
			break
		}
		page = next
		if slot, ok, err = s.tryClusterPage(page, data, 0); err != nil {
			return storage.NilOID, err
		}
	}
	if !ok {
		fresh, freshSlot, err := s.placeFresh(seg, data, len(data))
		if err != nil {
			return storage.NilOID, err
		}
		s.succ[page] = fresh
		page, slot = fresh, freshSlot
	}

	return s.finishAlloc(seg, page, slot, len(data))
}

// tryClusterPage inserts data into page id if it fits with reserve bytes of
// fresh space to spare. Client-directed placement packs records exactly (no
// allocator slack): the clustering client manages this space itself.
func (s *Store) tryClusterPage(id PageID, data []byte, reserve int) (int, bool, error) {
	f, err := s.pager.Pin(id, ModeWrite)
	if err != nil {
		return 0, false, err
	}
	slot, ok := 0, false
	if reserve == 0 || pageFreeSpace(f.Data) >= slotSize+len(data)+reserve {
		slot, ok, err = pageInsert(f.Data, data, len(data))
	}
	s.pager.Unpin(f, ok)
	if err != nil {
		return 0, false, fmt.Errorf("pagefile: cluster page %d: %w", id, err)
	}
	return slot, ok, nil
}

// clusterAt returns the name of the cluster whose record is in slot of page,
// or 0 if page is no start page or the slot carries no tag.
func (s *Store) clusterAt(page PageID, slot int) uint64 {
	if t := s.tags[page]; slot < len(t) && t[slot] != 0 {
		return makeEntry(page, int(t[slot]-1), false)
	}
	return 0
}

// tag records that slot of start page holds a record of the cluster whose
// first record is in slot first.
func (s *Store) tag(page PageID, slot, first int) {
	t := s.tags[page]
	if slot >= len(t) {
		t = append(t, make([]uint16, slot+1-len(t))...)
		s.tags[page] = t
	}
	t[slot] = uint16(first + 1)
}

// AllocateCluster implements storage.Manager: the record starts a cluster on
// its segment's shared start page, which keeps clusterReserve bytes free for
// the records AllocateNear adds to the clusters on it; when that page cannot
// take the record and keep the reserve, a fresh page becomes the start page.
func (s *Store) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	if seg >= storage.NumSegments {
		return storage.NilOID, fmt.Errorf("pagefile: bad segment %d", seg)
	}
	if len(data) > MaxInline {
		return s.allocateLocked(seg, data)
	}
	page, slot, ok := s.start[seg], 0, false
	var err error
	if page != 0 {
		if slot, ok, err = s.tryClusterPage(page, data, clusterReserve); err != nil {
			return storage.NilOID, err
		}
	}
	if !ok {
		if page, slot, err = s.placeFresh(seg, data, len(data)); err != nil {
			return storage.NilOID, err
		}
		s.start[seg] = page
	}
	// A reused slot names a new cluster: the old one's tail is not its own.
	s.tag(page, slot, slot)
	delete(s.tails, makeEntry(page, slot, false))
	return s.finishAlloc(seg, page, slot, len(data))
}

// finishAlloc issues the OID and object-table entry for a placed record.
func (s *Store) finishAlloc(seg storage.SegmentID, page PageID, slot int, size int) (storage.OID, error) {
	sm := &s.super.segs[seg]
	sm.nextIndex++
	oid := storage.MakeOID(seg, sm.nextIndex)
	if err := s.storeEntry(oid, makeEntry(page, slot, false)); err != nil {
		return storage.NilOID, err
	}
	s.super.liveObj++
	s.super.liveByte += uint64(size)
	s.allocs++
	return oid, nil
}

// Read implements storage.Manager.
func (s *Store) Read(oid storage.OID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, storage.ErrClosed
	}
	e, err := s.loadEntry(oid)
	if err != nil {
		return nil, fmt.Errorf("pagefile: read %v: %w", oid, err)
	}
	if entryIsOverflow(e) {
		total, pages, err := s.stubLocked(e)
		if err != nil {
			return nil, fmt.Errorf("pagefile: read %v: %w", oid, err)
		}
		s.reads++
		return s.readOverflow(total, pages)
	}
	data, err := s.readSlotLocked(e)
	if err != nil {
		return nil, fmt.Errorf("pagefile: read %v: %w", oid, err)
	}
	s.reads++
	return data, nil
}

// Write implements storage.Manager. Records may grow or shrink; the store
// relocates them (including across the inline/overflow boundary) while the
// OID stays stable.
func (s *Store) Write(oid storage.OID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	e, err := s.loadEntry(oid)
	if err != nil {
		return fmt.Errorf("pagefile: write %v: %w", oid, err)
	}
	seg := oid.Segment()
	newOverflow := len(data) > MaxInline

	// Each case learns the old record's length where it reads the old
	// record anyway: from the slot it pins, or from the stub it decodes.
	var oldLen int
	switch {
	case !entryIsOverflow(e) && !newOverflow:
		f, err := s.pager.Pin(entryPage(e), ModeWrite)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		old, err := pageRead(f.Data, entrySlot(e))
		if err != nil {
			s.pager.Unpin(f, false)
			return fmt.Errorf("pagefile: write %v: %w", oid, pageErr(e, err))
		}
		oldLen = len(old)
		ok, err := pageUpdate(f.Data, entrySlot(e), data)
		if err != nil {
			s.pager.Unpin(f, false)
			return fmt.Errorf("pagefile: write %v: %w", oid, pageErr(e, err))
		}
		if ok {
			s.pager.Unpin(f, true)
		} else {
			// Record grew past its reserved capacity: relocate.
			if err := pageFreeSlot(f.Data, entrySlot(e)); err != nil {
				s.pager.Unpin(f, false)
				return fmt.Errorf("pagefile: write %v: %w", oid, pageErr(e, err))
			}
			s.pager.Unpin(f, true)
			page, slot, err := s.placeInline(seg, data)
			if err != nil {
				return fmt.Errorf("pagefile: write %v: %w", oid, err)
			}
			if err := s.storeEntry(oid, makeEntry(page, slot, false)); err != nil {
				return err
			}
		}

	case entryIsOverflow(e) && newOverflow:
		total, oldPages, err := s.stubLocked(e)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		oldLen = total
		pages, err := s.writeExtents(seg, data, oldPages)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		if err := s.rewriteStub(oid, e, seg, encodeStub(len(data), pages)); err != nil {
			return err
		}

	case !entryIsOverflow(e) && newOverflow:
		if oldLen, err = s.freeSlotAt(e); err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		page, slot, err := s.placeOverflow(seg, data)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		if err := s.storeEntry(oid, makeEntry(page, slot, true)); err != nil {
			return err
		}

	default: // overflow -> inline
		total, oldPages, err := s.stubLocked(e)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		oldLen = total
		for _, id := range oldPages {
			if err := s.releasePage(id); err != nil {
				return err
			}
		}
		if _, err := s.freeSlotAt(e); err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		page, slot, err := s.placeInline(seg, data)
		if err != nil {
			return fmt.Errorf("pagefile: write %v: %w", oid, err)
		}
		if err := s.storeEntry(oid, makeEntry(page, slot, false)); err != nil {
			return err
		}
	}

	s.super.liveByte += uint64(len(data)) - uint64(oldLen)
	s.writes++
	return nil
}

// Update implements storage.Updater. An inline record is changed where it
// lies in its page, under one write pin of the data page; a page fn fails
// on is unpinned clean. An overflow record is read, changed and written
// back over its own extent pages.
func (s *Store) Update(oid storage.OID, fn func([]byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	e, err := s.loadEntry(oid)
	if err != nil {
		return fmt.Errorf("pagefile: update %v: %w", oid, err)
	}
	if entryIsOverflow(e) {
		total, pages, err := s.stubLocked(e)
		if err != nil {
			return fmt.Errorf("pagefile: update %v: %w", oid, err)
		}
		data, err := s.readOverflow(total, pages)
		if err != nil {
			return fmt.Errorf("pagefile: update %v: %w", oid, err)
		}
		if err := fn(data); err != nil {
			return err
		}
		// The stub names exactly the extents the length needs, so every
		// page is reused and the stub stands as it is.
		if _, err := s.writeExtents(oid.Segment(), data, pages); err != nil {
			return fmt.Errorf("pagefile: update %v: %w", oid, err)
		}
		s.writes++
		return nil
	}
	f, err := s.pager.Pin(entryPage(e), ModeWrite)
	if err != nil {
		return fmt.Errorf("pagefile: update %v: %w", oid, err)
	}
	raw, err := pageRead(f.Data, entrySlot(e))
	if err != nil {
		s.pager.Unpin(f, false)
		return fmt.Errorf("pagefile: update %v: %w", oid, pageErr(e, err))
	}
	if err := fn(raw); err != nil {
		s.pager.Unpin(f, false)
		return err
	}
	s.pager.Unpin(f, true)
	s.writes++
	return nil
}

// rewriteStub replaces an overflow stub record in place or by relocation.
func (s *Store) rewriteStub(oid storage.OID, e uint64, seg storage.SegmentID, stub []byte) error {
	f, err := s.pager.Pin(entryPage(e), ModeWrite)
	if err != nil {
		return err
	}
	ok, err := pageUpdate(f.Data, entrySlot(e), stub)
	if err != nil {
		s.pager.Unpin(f, false)
		return err
	}
	if ok {
		s.pager.Unpin(f, true)
		return nil
	}
	if err := pageFreeSlot(f.Data, entrySlot(e)); err != nil {
		s.pager.Unpin(f, false)
		return err
	}
	s.pager.Unpin(f, true)
	page, slot, err := s.placeInline(seg, stub)
	if err != nil {
		return err
	}
	return s.storeEntry(oid, makeEntry(page, slot, true))
}

// readSlotLocked returns a copy of the raw slot contents for entry e.
func (s *Store) readSlotLocked(e uint64) ([]byte, error) {
	f, err := s.pager.Pin(entryPage(e), ModeRead)
	if err != nil {
		return nil, err
	}
	defer s.pager.Unpin(f, false)
	raw, err := pageRead(f.Data, entrySlot(e))
	if err != nil {
		return nil, pageErr(e, err)
	}
	return append([]byte(nil), raw...), nil
}

// freeSlotAt frees the slot behind entry e and returns the length of the
// record it held.
func (s *Store) freeSlotAt(e uint64) (int, error) {
	f, err := s.pager.Pin(entryPage(e), ModeWrite)
	if err != nil {
		return 0, err
	}
	old, err := pageRead(f.Data, entrySlot(e))
	if err == nil {
		err = pageFreeSlot(f.Data, entrySlot(e))
	}
	s.pager.Unpin(f, err == nil)
	if err != nil {
		return 0, pageErr(e, err)
	}
	return len(old), nil
}

// Free implements storage.Manager.
func (s *Store) Free(oid storage.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	e, err := s.loadEntry(oid)
	if err != nil {
		return fmt.Errorf("pagefile: free %v: %w", oid, err)
	}
	// An overflow record's length is in its stub, an inline one's in the
	// slot it frees.
	length := 0
	if entryIsOverflow(e) {
		total, pages, err := s.stubLocked(e)
		if err != nil {
			return fmt.Errorf("pagefile: free %v: %w", oid, err)
		}
		for _, id := range pages {
			if err := s.releasePage(id); err != nil {
				return err
			}
		}
		length = total
	}
	n, err := s.freeSlotAt(e)
	if err != nil {
		return fmt.Errorf("pagefile: free %v: %w", oid, err)
	}
	if !entryIsOverflow(e) {
		length = n
	}
	if err := s.storeEntry(oid, entryTombstone); err != nil {
		return err
	}
	s.super.liveObj--
	s.super.liveByte -= uint64(length)
	return nil
}

// Root implements storage.Manager.
func (s *Store) Root() (storage.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.NilOID, storage.ErrClosed
	}
	return s.super.root, nil
}

// SetRoot implements storage.Manager.
func (s *Store) SetRoot(oid storage.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.requireTxn(); err != nil {
		return err
	}
	s.super.root = oid
	return nil
}

// awaitSealLocked blocks until no seal is in progress. The caller holds mu;
// Wait releases it while parked.
func (s *Store) awaitSealLocked() {
	for s.sealing {
		s.sealed.Wait()
	}
}

// Begin implements storage.Manager. A transaction cannot open while the
// previous one is still being sealed: until pager.Commit returns, its pages
// are what the pager is taking. It can open while the previous one's durable
// wait is outstanding.
func (s *Store) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitSealLocked()
	if s.closed {
		return storage.ErrClosed
	}
	if s.inTxn {
		return fmt.Errorf("pagefile: nested transaction")
	}
	if err := s.pager.Begin(); err != nil {
		return err
	}
	s.inTxn = true
	return nil
}

// Commit implements storage.Manager: Seal, then wait for durability.
func (s *Store) Commit() error {
	durable, err := s.Seal()
	if err != nil {
		return err
	}
	return durable()
}

// Seal implements storage.Sealer. Everything that touches the store's own
// state — the superblock image, the end of the transaction — happens under
// mu; the pager's commit happens outside it, and the wait for durability,
// which is where the time goes, is the caller's, so nobody but the
// committer waits for the log's fsync.
func (s *Store) Seal() (durable func() error, err error) {
	if err := s.endTxn(); err != nil {
		return nil, err
	}
	durable, err = s.pager.Commit()
	s.mu.Lock()
	s.sealing = false
	s.sealed.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if durable == nil {
		durable = storage.NoWait
	}
	return durable, nil
}

// endTxn writes the superblock into its page and closes the transaction,
// leaving the store marked sealing for Seal to clear.
func (s *Store) endTxn() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrClosed
	}
	if !s.inTxn {
		return storage.ErrNoTransaction
	}
	if err := s.flushSuper(); err != nil {
		return err
	}
	s.inTxn = false
	s.sealing = true
	return nil
}

// Stats implements storage.Manager.
func (s *Store) Stats() storage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.pager.Stats()
	return storage.Stats{
		Faults:      ps.Faults,
		PageWrites:  ps.PageWrites,
		Reads:       s.reads,
		Writes:      s.writes,
		Allocs:      s.allocs,
		SizeBytes:   s.pager.SizeBytes(),
		LiveObjects: s.super.liveObj,
		LiveBytes:   s.super.liveByte,
	}
}

// Close implements storage.Manager. It waits out a seal in progress rather
// than closing the pager under it; the pager's Close waits out the flushes.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitSealLocked()
	if s.closed {
		return nil
	}
	if s.inTxn {
		return fmt.Errorf("pagefile: close with open transaction")
	}
	s.closed = true
	return s.pager.Close()
}

var (
	_ storage.Manager = (*Store)(nil)
	_ storage.Sealer  = (*Store)(nil)
	_ storage.Updater = (*Store)(nil)
)
