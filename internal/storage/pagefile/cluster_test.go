package pagefile

import (
	"bytes"
	"testing"

	"labflow/internal/storage"
)

// pageOf resolves oid to the page its record lives on.
func pageOf(t *testing.T, s *Store, oid storage.OID) PageID {
	t.Helper()
	e, err := s.loadEntry(oid)
	if err != nil {
		t.Fatalf("entry of %v: %v", oid, err)
	}
	return entryPage(e)
}

// record is one allocated record and the bytes it must read back.
type record struct {
	oid  storage.OID
	data []byte
}

// readBack checks that every record reads back as written.
func readBack(t *testing.T, s *Store, recs []record) {
	t.Helper()
	for _, r := range recs {
		got, err := s.Read(r.oid)
		if err != nil {
			t.Fatalf("read %v: %v", r.oid, err)
		}
		if !bytes.Equal(got, r.data) {
			t.Fatalf("record %v read back %d bytes, want %d", r.oid, len(got), len(r.data))
		}
	}
}

// fill returns n bytes of b.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestClustersShareThenSeparate pins cluster placement. Small clusters — a
// head and one companion, the shape a sample takes — pack several to a
// shared start page, because the page keeps a reserve for each cluster's
// next record. Clusters that outgrow their start page continue on pages
// that hold no other cluster's records, even when they grow interleaved and
// are anchored both at their heads and at their latest records.
func TestClustersShareThenSeparate(t *testing.T) {
	s := newTestStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	const nSmall = 60
	clusters := make([][]record, 0, nSmall)
	for i := range nSmall {
		head := fill(byte(i), 100)
		oid, err := s.AllocateCluster(storage.SegHistory, head)
		if err != nil {
			t.Fatal(err)
		}
		companion := fill(byte(i), 1000)
		near, err := s.AllocateNear(oid, companion)
		if err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, []record{{oid, head}, {near, companion}})
	}
	pages := make(map[PageID]bool)
	for _, c := range clusters {
		for _, r := range c {
			pages[pageOf(t, s, r.oid)] = true
		}
	}
	// 60 x ~1.1 KB is about 8 pages of records. A page per cluster would be
	// 60; a start page filled to the brim, its later clusters' companions
	// each spilling to a page of their own, about 24.
	if len(pages) > nSmall/4 {
		t.Errorf("%d small clusters spread over %d pages, want at most %d", nSmall, len(pages), nSmall/4)
	}

	// Grow the first three clusters, which share a start page, interleaved
	// until each has outgrown it: every fourth record anchors at the head,
	// the rest at the cluster's latest record.
	grown := clusters[:3]
	start := pageOf(t, s, grown[0][0].oid)
	for _, c := range grown[1:] {
		if p := pageOf(t, s, c[0].oid); p != start {
			t.Fatalf("the first three clusters start on pages %d and %d, want one shared page", start, p)
		}
	}
	for j := range 24 {
		for i, c := range grown {
			anchor := c[len(c)-1].oid
			if j%4 == 0 {
				anchor = c[0].oid
			}
			data := fill(byte(100+i), 500)
			oid, err := s.AllocateNear(anchor, data)
			if err != nil {
				t.Fatal(err)
			}
			grown[i] = append(grown[i], record{oid, data})
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// White-box: which clusters have records on each page.
	var recs []record
	owners := make(map[PageID]map[int]bool)
	for i, c := range clusters {
		for _, r := range c {
			p := pageOf(t, s, r.oid)
			if owners[p] == nil {
				owners[p] = make(map[int]bool)
			}
			owners[p][i] = true
		}
		recs = append(recs, c...)
	}
	for i, c := range grown {
		own := 0
		for _, r := range c {
			p := pageOf(t, s, r.oid)
			if p == start {
				continue
			}
			own++
			if len(owners[p]) != 1 {
				t.Errorf("cluster %d continues on page %d, which holds records of %d clusters", i, p, len(owners[p]))
			}
		}
		if own == 0 {
			t.Errorf("cluster %d never left its start page", i)
		}
	}
	readBack(t, s, recs)
}

// TestClusterAnchorsAfterReopen reopens a store whose clusters were placed on
// shared start pages. Their tags are gone, so AllocateNear anchored on a
// former start page extends it the page-keyed way; it must succeed, every
// record must read back, and the file must stay packed.
func TestClusterAnchorsAfterReopen(t *testing.T) {
	mp := newMemPager()
	s, err := New("test", mp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	const n = 30
	var recs []record
	heads := make([]storage.OID, n)
	for i := range n {
		head := fill(byte(i), 100)
		oid, err := s.AllocateCluster(storage.SegHistory, head)
		if err != nil {
			t.Fatal(err)
		}
		companion := fill(byte(i), 1000)
		near, err := s.AllocateNear(oid, companion)
		if err != nil {
			t.Fatal(err)
		}
		heads[i] = oid
		recs = append(recs, record{oid, head}, record{near, companion})
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = New("test", &memPager{backing: mp.backing, resident: make(map[PageID]*Frame)}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	readBack(t, s, recs)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for j := range 5 {
		for i, head := range heads {
			data := fill(byte(j*n+i), 600)
			oid, err := s.AllocateNear(head, data)
			if err != nil {
				t.Fatalf("AllocateNear on former start page after reopen: %v", err)
			}
			recs = append(recs, record{oid, data})
		}
	}
	oid, err := s.AllocateCluster(storage.SegHistory, fill(0xEE, 100))
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, record{oid, fill(0xEE, 100)})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	readBack(t, s, recs)
	// Superblock, directory and table pages, plus twice the records' bytes:
	// the former start pages' chains leave their last pages part full (24
	// pages here in all), while a page per cluster's extensions would take
	// 38 and a page per extension 150.
	st := s.Stats()
	if limit := 3*PageSize + 2*st.LiveBytes; st.SizeBytes > limit {
		t.Errorf("file of %d bytes for %d live bytes, want at most %d", st.SizeBytes, st.LiveBytes, limit)
	}
}
