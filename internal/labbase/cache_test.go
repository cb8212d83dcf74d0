package labbase

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/storagetest"
)

// TestOIDCacheConflictEviction pins the direct-mapped placement: an OID
// lives in the slot its low index bits pick, a later OID sharing that slot
// evicts it, OIDs in other slots are untouched, and invalidate empties only
// the slot it names.
func TestOIDCacheConflictEviction(t *testing.T) {
	c := newOIDCache[int](3) // rounds up to 4 slots
	if len(c.slots) != 4 {
		t.Fatalf("%d slots, want 4", len(c.slots))
	}
	mat := func(i uint64) storage.OID { return storage.MakeOID(storage.SegMaterial, i) }
	want := func(i uint64, v int, ok bool) {
		t.Helper()
		if got, hit := c.get(mat(i)); hit != ok || got != v {
			t.Fatalf("get(%d) = %v, %v; want %v, %v", i, got, hit, v, ok)
		}
	}

	want(1, 0, false)
	for i := uint64(1); i <= 4; i++ {
		c.put(mat(i), int(10*i))
	}
	for i := uint64(1); i <= 4; i++ {
		want(i, int(10*i), true)
	}
	// 5 shares slot 1 with 1: it evicts 1 and nothing else, however
	// recently 1 was read.
	c.put(mat(5), 50)
	want(1, 0, false)
	want(5, 50, true)
	want(2, 20, true)
	// A refresh replaces the value in place.
	c.put(mat(2), 21)
	want(2, 21, true)

	// A fill installs into an empty or conflicting slot, and a hit never
	// runs load.
	if v, err := c.getOrFill(mat(1), func() (int, error) { return 11, nil }); err != nil || v != 11 {
		t.Fatalf("getOrFill(1) = %v, %v", v, err)
	}
	want(1, 11, true)
	want(5, 0, false)
	if v, _ := c.getOrFill(mat(1), func() (int, error) { t.Fatal("load ran on a hit"); return 0, nil }); v != 11 {
		t.Fatalf("getOrFill hit = %v, want 11", v)
	}
	// A failed load is returned and not cached.
	boom := errors.New("boom")
	if _, err := c.getOrFill(mat(6), func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("getOrFill error = %v, want %v", err, boom)
	}
	want(2, 21, true)

	c.invalidate(mat(3))
	want(3, 0, false)
	want(1, 11, true)
	want(2, 21, true)
	want(4, 40, true)
	c.invalidate(mat(3)) // already empty: still empty
	want(3, 0, false)
}

// TestOIDCacheFillLosesToWriter parks a fill inside its load while a writer
// updates the same OID: once the fill returns, the cache must hold the
// writer's state, not the fill's older read. A fill that installed with a
// plain Store instead of a CompareAndSwap fails both cases; an invalidate
// that stored nil over an empty slot fails the second.
func TestOIDCacheFillLosesToWriter(t *testing.T) {
	oid := storage.MakeOID(storage.SegIndex, 9)
	for _, tc := range []struct {
		name   string
		writer func(c *oidCache[int])
		want   int
		hit    bool
	}{
		{"put", func(c *oidCache[int]) { c.put(oid, 2) }, 2, true},
		{"invalidate", func(c *oidCache[int]) { c.invalidate(oid) }, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newOIDCache[int](8)
			parked, release := make(chan struct{}), make(chan struct{})
			done := make(chan int)
			go func() {
				v, _ := c.getOrFill(oid, func() (int, error) {
					close(parked)
					<-release
					return 1, nil // read before the writer's update
				})
				done <- v
			}()
			<-parked
			tc.writer(c)
			close(release)
			if v := <-done; v != 1 {
				t.Fatalf("fill returned %d, want its own load's 1", v)
			}
			if v, ok := c.get(oid); v != tc.want || ok != tc.hit {
				t.Fatalf("after the fill: get = %v, %v; want %v, %v (a stale fill landed)", v, ok, tc.want, tc.hit)
			}
		})
	}
}

// TestOIDCacheDeterministic drives two caches through one seeded call
// sequence and checks that they hold identical slots after every call:
// placement is a function of the calls alone, which is what keeps the
// simulated fault counters reproducible.
func TestOIDCacheDeterministic(t *testing.T) {
	a, b := newOIDCache[int](16), newOIDCache[int](16)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		oid := storage.MakeOID(storage.SegMaterial, uint64(1+rng.Intn(64)))
		op, v := rng.Intn(4), rng.Int()
		for _, c := range []*oidCache[int]{a, b} {
			switch op {
			case 0:
				c.put(oid, v)
			case 1:
				c.invalidate(oid)
			case 2:
				c.get(oid)
			default:
				if _, err := c.getOrFill(oid, func() (int, error) { return v, nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range a.slots {
			ea, eb := a.slots[i].Load(), b.slots[i].Load()
			if (ea == nil) != (eb == nil) || ea != nil && *ea != *eb {
				t.Fatalf("step %d: slot %d differs: %+v vs %+v", step, i, ea, eb)
			}
		}
	}
}

func TestOIDCacheNil(t *testing.T) {
	var c *oidCache[string]
	if c := newOIDCache[string](0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	// All operations on a nil cache are safe no-ops.
	c.put(storage.OID(1), "x")
	if _, ok := c.get(storage.OID(1)); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.invalidate(storage.OID(1))
	if v, err := c.getOrFill(storage.OID(1), func() (string, error) { return "y", nil }); err != nil || v != "y" {
		t.Fatalf("nil cache getOrFill = %q, %v", v, err)
	}
}

// TestDecodeCacheHitAllocatesNothing reads a warm most-recent index through
// a snapshot: the hit is one atomic load and allocates nothing.
func TestDecodeCacheHitAllocatesNothing(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db := openMem(t)
	oids := loadReadSet(t, db, 1, 4)
	mr := mustMR(t, db, oids[0])
	s := db.acquire()
	defer s.Close()
	if _, err := s.readMR(mr); err != nil { // warm the slot
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.readMR(mr); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per warm readMR; want 0", allocs)
	}
}

// TestCacheEquivalence drives two databases — caches on vs. caches off —
// through an identical seeded workload and checks that every query answer
// matches, and matches the MostRecentScan oracle. Cache hits must change
// only how answers are produced, never the answers.
func TestCacheEquivalence(t *testing.T) {
	openWith := func(entries int) *DB {
		db, err := Open(memstore.Open("cache-eq"), Options{CacheEntries: entries})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	// Tiny cache so the workload forces plenty of evictions.
	cached, plain := openWith(8), openWith(0)
	dbs := []*DB{cached, plain}

	var mats [][]storage.OID // mats[d][i]: i-th material in db d
	for _, db := range dbs {
		begin(t, db)
		if _, err := db.DefineMaterialClass("material", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DefineMaterialClass("clone", "material"); err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"prep", "seq", "done"} {
			if _, err := db.DefineState(s); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, db)
	}

	const nMats = 40
	const nSteps = 300
	states := []string{"prep", "seq", "done"}
	attrs := []string{"sequence", "quality", "length", "ok"}

	// Both DBs see the exact same operation stream: one RNG decides, both
	// replay. Valid times are drawn randomly so out-of-order arrivals
	// exercise the most-recent index's temporal tie-breaking.
	rng := rand.New(rand.NewSource(42))
	mats = make([][]storage.OID, 2)
	for d, db := range dbs {
		begin(t, db)
		for i := 0; i < nMats; i++ {
			oid, err := db.CreateMaterial("clone", fmt.Sprintf("m%d", i), "prep", int64(i))
			if err != nil {
				t.Fatalf("CreateMaterial: %v", err)
			}
			mats[d] = append(mats[d], oid)
		}
		commit(t, db)
	}

	for s := 0; s < nSteps; s++ {
		mi := rng.Intn(nMats)
		vt := int64(rng.Intn(1000))
		ai := rng.Intn(len(attrs))
		val := rng.Intn(100)
		si := rng.Intn(len(states))
		batch := rng.Intn(10) == 0
		var extra int
		if batch {
			extra = rng.Intn(nMats)
		}
		for d, db := range dbs {
			begin(t, db)
			targets := []storage.OID{mats[d][mi]}
			if batch && extra != mi {
				targets = append(targets, mats[d][extra])
			}
			spec := StepSpec{
				Class:     "assay",
				ValidTime: vt,
				Materials: targets,
				Attrs: []AttrValue{
					{Name: attrs[ai], Value: Int64(int64(val))},
				},
			}
			if _, err := db.RecordStep(spec); err != nil {
				t.Fatalf("RecordStep: %v", err)
			}
			if err := db.SetState(mats[d][mi], states[si]); err != nil {
				t.Fatalf("SetState: %v", err)
			}
			commit(t, db)
		}

		// Every 25 steps, cross-check a sample of query answers.
		if s%25 != 24 {
			continue
		}
		for probe := 0; probe < 8; probe++ {
			m := rng.Intn(nMats)
			a := attrs[rng.Intn(len(attrs))]
			v0, s0, ok0, err := cached.MostRecent(mats[0][m], a)
			if err != nil {
				t.Fatalf("cached MostRecent: %v", err)
			}
			v1, s1, ok1, err := plain.MostRecent(mats[1][m], a)
			if err != nil {
				t.Fatalf("plain MostRecent: %v", err)
			}
			if ok0 != ok1 || !reflect.DeepEqual(v0, v1) || s0 != s1 {
				t.Fatalf("step %d: MostRecent(%d, %q) diverged: cached=(%v,%v,%v) plain=(%v,%v,%v)",
					s, m, a, v0, s0, ok0, v1, s1, ok1)
			}
			// And both must agree with the full-scan oracle.
			vo, so, oko, err := cached.MostRecentScan(mats[0][m], a)
			if err != nil {
				t.Fatalf("MostRecentScan: %v", err)
			}
			if ok0 != oko || !reflect.DeepEqual(v0, vo) || s0 != so {
				t.Fatalf("step %d: cached MostRecent(%d, %q)=(%v,%v,%v) disagrees with scan oracle (%v,%v,%v)",
					s, m, a, v0, s0, ok0, vo, so, oko)
			}
			st0, err := cached.State(mats[0][m])
			if err != nil {
				t.Fatal(err)
			}
			st1, err := plain.State(mats[1][m])
			if err != nil {
				t.Fatal(err)
			}
			if st0 != st1 {
				t.Fatalf("state diverged for material %d: %q vs %q", m, st0, st1)
			}
			g0, err := cached.GetMaterial(mats[0][m])
			if err != nil {
				t.Fatal(err)
			}
			g1, err := plain.GetMaterial(mats[1][m])
			if err != nil {
				t.Fatal(err)
			}
			if *g0 != *g1 {
				t.Fatalf("GetMaterial diverged for material %d: %+v vs %+v", m, *g0, *g1)
			}
		}
	}

	// Final sweep: every material, every attribute, against the oracle.
	for m := 0; m < nMats; m++ {
		for _, a := range attrs {
			v0, s0, ok0, err := cached.MostRecent(mats[0][m], a)
			if err != nil {
				t.Fatal(err)
			}
			vo, so, oko, err := cached.MostRecentScan(mats[0][m], a)
			if err != nil {
				t.Fatal(err)
			}
			if ok0 != oko || !reflect.DeepEqual(v0, vo) || s0 != so {
				t.Fatalf("final: MostRecent(%d, %q) disagrees with oracle", m, a)
			}
			v1, s1, ok1, err := plain.MostRecent(mats[1][m], a)
			if err != nil {
				t.Fatal(err)
			}
			if ok0 != ok1 || !reflect.DeepEqual(v0, v1) || s0 != s1 {
				t.Fatalf("final: cached/plain divergence at material %d attr %q", m, a)
			}
		}
	}
}

// TestCacheSurvivesReopen ensures cached state is purely in-memory: a fresh
// DB over the same storage sees everything the cached writes produced.
func TestCacheSurvivesReopen(t *testing.T) {
	sm := memstore.Open("cache-reopen")
	db, err := Open(sm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	begin(t, db)
	if _, err := db.DefineMaterialClass("material", ""); err != nil {
		t.Fatal(err)
	}
	oid, err := db.CreateMaterial("material", "x", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	begin(t, db)
	if _, err := db.RecordStep(StepSpec{
		Class: "weigh", ValidTime: 5, Materials: []storage.OID{oid},
		Attrs: []AttrValue{{Name: "mass", Value: Float64(1.5)}},
	}); err != nil {
		t.Fatal(err)
	}
	commit(t, db)

	// A second DB over the same storage starts with cold caches; it must see
	// everything the first DB's cached write paths persisted.
	db2, err := Open(sm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, _, ok, err := db2.MostRecent(oid, "mass")
	if err != nil || !ok || !reflect.DeepEqual(v, Float64(1.5)) {
		t.Fatalf("reopened MostRecent = %v, %v, %v", v, ok, err)
	}
}
