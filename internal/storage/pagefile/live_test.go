package pagefile_test

import (
	"math/rand"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/texas"
)

// writeKinds names the paths a Write can take through the store.
var writeKinds = []string{"same size", "grown in place", "relocated", "inline to overflow", "overflow to inline", "overflow to overflow"}

// TestLiveCountsExact runs a seeded mix of Allocate, Write and Free over an
// ostore store (records packed exactly) and a texas store (records given
// size-class slack), and after every transaction checks the superblock's
// live-object and live-byte counts against a recount over the object table
// and against the model. Those counts feed the benchmark's
// bytes_per_user_byte. The mix must take every Write path.
func TestLiveCountsExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (storage.Manager, error)
	}{
		{"ostore", func() (storage.Manager, error) { return ostore.Open(ostore.Options{}) }},
		{"texas", func() (storage.Manager, error) { return texas.Open(texas.Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			liveCountsMix(t, m.(countedStore))
		})
	}
}

// countedStore is a manager built on pagefile.Store (texas wraps one), with
// the Store's test helpers.
type countedStore interface {
	storage.Manager
	Entry(storage.OID) (uint64, error)
	Recount() (objs, bytes uint64, err error)
}

func liveCountsMix(t *testing.T, s countedStore) {
	rng := rand.New(rand.NewSource(1))
	size := func() int {
		if rng.Intn(6) == 0 {
			return pagefile.MaxInline + 1 + rng.Intn(3*pagefile.PageSize)
		}
		return 1 + rng.Intn(600)
	}
	model := make(map[storage.OID]int)
	var oids []storage.OID // allocation order, for a deterministic pick
	pick := func() (storage.OID, bool) {
		var live []storage.OID
		for _, oid := range oids {
			if _, ok := model[oid]; ok {
				live = append(live, oid)
			}
		}
		if len(live) == 0 {
			return storage.NilOID, false
		}
		return live[rng.Intn(len(live))], true
	}
	kinds := make(map[string]int)
	for txn := 0; txn < 60; txn++ {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 12; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				n := size()
				oid, err := s.Allocate(storage.SegmentID(rng.Intn(int(storage.NumSegments))), make([]byte, n))
				if err != nil {
					t.Fatal(err)
				}
				model[oid] = n
				oids = append(oids, oid)
			case k < 9:
				oid, ok := pick()
				if !ok {
					continue
				}
				old := model[oid]
				n := size()
				switch rng.Intn(3) {
				case 0:
					n = old
				case 1:
					n = old + 1 + rng.Intn(40) // a small growth, in place when the slot has room
				}
				before, err := s.Entry(oid)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Write(oid, make([]byte, n)); err != nil {
					t.Fatal(err)
				}
				after, err := s.Entry(oid)
				if err != nil {
					t.Fatal(err)
				}
				kinds[writeKind(old, n, before == after)]++
				model[oid] = n
			default:
				oid, ok := pick()
				if !ok {
					continue
				}
				if err := s.Free(oid); err != nil {
					t.Fatal(err)
				}
				delete(model, oid)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		var wantBytes uint64
		for _, n := range model {
			wantBytes += uint64(n)
		}
		objs, bytes, err := s.Recount()
		if err != nil {
			t.Fatalf("txn %d: recount: %v", txn, err)
		}
		st := s.Stats()
		if st.LiveObjects != objs || st.LiveBytes != bytes {
			t.Fatalf("txn %d: superblock counts %d objects, %d bytes; the object table holds %d, %d",
				txn, st.LiveObjects, st.LiveBytes, objs, bytes)
		}
		if objs != uint64(len(model)) || bytes != wantBytes {
			t.Fatalf("txn %d: the object table holds %d objects, %d bytes; the model %d, %d",
				txn, objs, bytes, len(model), wantBytes)
		}
	}
	t.Logf("writes by path: %v", kinds)
	for _, k := range writeKinds {
		if kinds[k] == 0 {
			t.Errorf("no Write took the %s path", k)
		}
	}
}

// writeKind classifies a Write of an old-byte record to n bytes; same
// reports whether the object-table entry was left as it was.
func writeKind(old, n int, same bool) string {
	oldOver, newOver := old > pagefile.MaxInline, n > pagefile.MaxInline
	switch {
	case oldOver && newOver:
		return "overflow to overflow"
	case oldOver:
		return "overflow to inline"
	case newOver:
		return "inline to overflow"
	case n == old:
		return "same size"
	case !same:
		return "relocated"
	case n > old:
		return "grown in place"
	}
	return "shrunk in place"
}
