package pagefile

import (
	"bytes"
	"labflow/internal/fault/gate"
	"sort"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/storagetest"
)

// TestConformanceOverMemPager runs the shared manager suite against Store
// with the minimal pager, covering the object layer in isolation.
func TestConformanceOverMemPager(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return newTestStore(t)
	})
}

// TestConformanceWithSlack runs the same suite under heap-style size
// classes, covering the slack arithmetic on every path.
func TestConformanceWithSlack(t *testing.T) {
	slack := func(n int) int { return (n + 8 + 15) &^ 15 }
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		s, err := New("slacked", newMemPager(), slack)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// memPager is a minimal unbounded pager for white-box Store tests.
type memPager struct {
	backing  *MemBacking
	resident map[PageID]*Frame
	faults   uint64
	writes   uint64
}

func newMemPager() *memPager {
	return &memPager{backing: NewMem(), resident: make(map[PageID]*Frame)}
}

func (p *memPager) Pin(id PageID, mode Mode) (*Frame, error) {
	if f, ok := p.resident[id]; ok {
		return f, nil
	}
	buf := make([]byte, PageSize)
	if err := p.backing.ReadPage(id, buf); err != nil {
		return nil, err
	}
	p.faults++
	f := &Frame{ID: id, Data: buf}
	p.resident[id] = f
	return f, nil
}

func (p *memPager) Unpin(f *Frame, dirty bool) {}

func (p *memPager) AllocPage() (*Frame, error) {
	id, err := p.backing.Grow()
	if err != nil {
		return nil, err
	}
	f := &Frame{ID: id, Data: make([]byte, PageSize)}
	p.resident[id] = f
	return f, nil
}

func (p *memPager) Begin() error { return nil }

func (p *memPager) Commit() (func() error, error) {
	ids := make([]PageID, 0, len(p.resident))
	for id := range p.resident {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := p.backing.WritePage(id, p.resident[id].Data); err != nil {
			return nil, err
		}
		p.writes++
	}
	return nil, nil
}

func (p *memPager) Stats() PagerStats {
	return PagerStats{Faults: p.faults, PageWrites: p.writes}
}

func (p *memPager) SizeBytes() uint64 { return p.backing.SizeBytes() }
func (p *memPager) Close() error      { return nil }

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := New("test", newMemPager(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFreePageRecycling frees a large record and checks its overflow pages
// are reused by subsequent allocations instead of growing the file.
func TestFreePageRecycling(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("r"), 50000) // ~7 overflow pages
	oid, err := s.Allocate(storage.SegHistory, big)
	if err != nil {
		t.Fatal(err)
	}
	sizeAfterBig := s.Stats().SizeBytes
	if err := s.Free(oid); err != nil {
		t.Fatal(err)
	}
	// Allocate the same volume again: the file must not grow.
	if _, err := s.Allocate(storage.SegHistory, big); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SizeBytes; got != sizeAfterBig {
		t.Errorf("size after recycle = %d, want %d (no growth)", got, sizeAfterBig)
	}
}

// TestShrinkReleasesOverflowPages rewrites a big record small and reuses the
// released pages.
func TestShrinkReleasesOverflowPages(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("s"), 40000)
	oid, err := s.Allocate(storage.SegHistory, big)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().SizeBytes
	if err := s.Write(oid, []byte("tiny now")); err != nil {
		t.Fatal(err)
	}
	// The released extents satisfy a new big allocation without growth.
	if _, err := s.Allocate(storage.SegHistory, big); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SizeBytes; got != before {
		t.Errorf("size = %d, want %d", got, before)
	}
	if data, err := s.Read(oid); err != nil || string(data) != "tiny now" {
		t.Fatalf("shrunk record = %q, %v", data, err)
	}
}

// TestLiveAccounting cross-checks LiveObjects/LiveBytes over a mixed
// workload with frees and rewrites.
func TestLiveAccounting(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Allocate(storage.SegIndex, make([]byte, 100))
	bOID, _ := s.Allocate(storage.SegIndex, make([]byte, 200))
	if st := s.Stats(); st.LiveObjects != 2 || st.LiveBytes != 300 {
		t.Fatalf("after allocs: %+v", st)
	}
	if err := s.Write(a, make([]byte, 150)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveBytes != 350 {
		t.Fatalf("after grow: LiveBytes = %d", st.LiveBytes)
	}
	if err := s.Free(bOID); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveObjects != 1 || st.LiveBytes != 150 {
		t.Fatalf("after free: %+v", st)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSuccessorChain verifies that chained AllocateNear funnels into
// successive pages (filling before extending) rather than spraying pages.
func TestClusterSuccessorChain(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	head, err := s.AllocateCluster(storage.SegHistory, make([]byte, 800))
	if err != nil {
		t.Fatal(err)
	}
	// 50 x 800B ≈ 40 KB ≈ 5 pages if packed; interleave anchors between
	// head and latest to prove the funnel works from anywhere in the chain.
	prev := head
	for i := 0; i < 50; i++ {
		anchor := prev
		if i%3 == 0 {
			anchor = head // anchor at the cluster head, not the tail
		}
		oid, err := s.AllocateNear(anchor, make([]byte, 800))
		if err != nil {
			t.Fatal(err)
		}
		prev = oid
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// 51 records * 806B = ~41 KB; superblock + tables + <= 7 data pages.
	if got := s.Stats().SizeBytes; got > 12*PageSize {
		t.Errorf("cluster used %d bytes (> 12 pages); successor chain should pack", got)
	}
}

// TestSegmentIsolation confirms fill pages are per segment: records from
// different segments never share a page.
func TestSegmentIsolation(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Allocate(storage.SegMaterial, []byte("mat")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Allocate(storage.SegHistory, []byte("his")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// White-box: resolve each object's page and check segment tags.
	for seg, want := range map[storage.SegmentID]uint8{storage.SegMaterial: uint8(storage.SegMaterial), storage.SegHistory: uint8(storage.SegHistory)} {
		for idx := uint64(1); idx <= 50; idx++ {
			e, err := s.loadEntry(storage.MakeOID(seg, idx))
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.pager.Pin(entryPage(e), ModeRead)
			if err != nil {
				t.Fatal(err)
			}
			if pageSeg(f.Data) != want {
				t.Fatalf("object %v on page tagged segment %d", storage.MakeOID(seg, idx), pageSeg(f.Data))
			}
			s.pager.Unpin(f, false)
		}
	}
}

// gatedPager parks Commit in a gate.Gate before it touches anything.
type gatedPager struct {
	*memPager
	gate *gate.Gate
}

func (p gatedPager) Commit() (func() error, error) {
	p.gate.Pass()
	return p.memPager.Commit()
}

// TestCommitFlushOutsideMutex checks the Store's own half of the contract
// with the pager's flush held open: mu is released for it (Read, Root and
// Stats go through), the transaction is already over (mutations refused),
// and the in-flight state alone keeps Begin and Close out — the pager here
// has no lock of its own to hide behind.
func TestCommitFlushOutsideMutex(t *testing.T) {
	gate := &gate.Gate{}
	mp := newMemPager()
	s, err := New("gated", gatedPager{mp, gate}, nil)
	if err != nil {
		t.Fatal(err)
	}
	storagetest.StalledCommit(t, s, gate, storagetest.ReadersProceed, func() storage.Manager {
		s2, err := New("gated", mp, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return s2
	})
}

// TestInlineWriteAllocatesNothing rewrites an inline record at its own
// length: the old length is read from the slot under the write pin, so the
// rewrite takes one pin and copies nothing out.
func TestInlineWriteAllocatesNothing(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 300)
	oid, err := s.Allocate(storage.SegMaterial, data)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Write(oid, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per same-size inline Write; want 0", allocs)
	}
	if st := s.Stats(); st.LiveObjects != 1 || st.LiveBytes != uint64(len(data)) {
		t.Errorf("after the rewrites: %d objects, %d bytes; want 1, %d", st.LiveObjects, st.LiveBytes, len(data))
	}
}
