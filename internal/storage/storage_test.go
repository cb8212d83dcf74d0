package storage

import (
	"testing"
	"testing/quick"
)

func TestOIDEncoding(t *testing.T) {
	oid := MakeOID(SegHistory, 12345)
	if oid.Segment() != SegHistory {
		t.Errorf("Segment = %v, want history", oid.Segment())
	}
	if oid.Index() != 12345 {
		t.Errorf("Index = %d, want 12345", oid.Index())
	}
	if oid.IsNil() {
		t.Error("non-zero OID reported nil")
	}
	if !NilOID.IsNil() {
		t.Error("NilOID not nil")
	}
	if NilOID.String() != "oid(nil)" {
		t.Errorf("NilOID.String = %q", NilOID.String())
	}
	if got := MakeOID(SegCatalog, 7).String(); got != "oid(catalog:7)" {
		t.Errorf("String = %q", got)
	}
}

func TestOIDQuick(t *testing.T) {
	f := func(seg uint8, idx uint64) bool {
		s := SegmentID(seg % uint8(NumSegments))
		i := idx & ((1 << 56) - 1)
		oid := MakeOID(s, i)
		return oid.Segment() == s && oid.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentString(t *testing.T) {
	names := map[SegmentID]string{
		SegCatalog:   "catalog",
		SegMaterial:  "material",
		SegIndex:     "index",
		SegHistory:   "history",
		SegmentID(9): "segment(9)",
	}
	for seg, want := range names {
		if got := seg.String(); got != want {
			t.Errorf("SegmentID(%d).String() = %q, want %q", seg, got, want)
		}
	}
}

func TestStatsSub(t *testing.T) {
	cur := Stats{Faults: 100, PageWrites: 50, Reads: 10, Writes: 5, Allocs: 3, LockWaits: 2, SizeBytes: 999, LiveObjects: 7, LiveBytes: 70}
	prev := Stats{Faults: 40, PageWrites: 20, Reads: 4, Writes: 2, Allocs: 1, LockWaits: 1, SizeBytes: 500, LiveObjects: 3, LiveBytes: 30}
	d := cur.Sub(prev)
	if d.Faults != 60 || d.PageWrites != 30 || d.Reads != 6 || d.Writes != 3 || d.Allocs != 2 || d.LockWaits != 1 {
		t.Errorf("Sub counters wrong: %+v", d)
	}
	// Gauges keep the current value.
	if d.SizeBytes != 999 || d.LiveObjects != 7 || d.LiveBytes != 70 {
		t.Errorf("Sub gauges wrong: %+v", d)
	}
}

// TestStatsAddSubRoundTrip: Add sums every field, so a.Add(b).Sub(b) gives
// back a's counters while the gauges stay at the two managers' total (Sub
// keeps gauges current).
func TestStatsAddSubRoundTrip(t *testing.T) {
	a := Stats{Faults: 100, PageWrites: 50, Reads: 10, Writes: 5, Allocs: 3, LockWaits: 2, SizeBytes: 999, LiveObjects: 7, LiveBytes: 70}
	b := Stats{Faults: 40, PageWrites: 20, Reads: 4, Writes: 2, Allocs: 1, LockWaits: 1, SizeBytes: 500, LiveObjects: 3, LiveBytes: 30}
	want := a
	want.SizeBytes, want.LiveObjects, want.LiveBytes = 1499, 10, 100
	if got := a.Add(b).Sub(b); got != want {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, want)
	}
	if got := (Stats{}).Add(a); got != a {
		t.Errorf("zero.Add(a) = %+v, want a", got)
	}
}
