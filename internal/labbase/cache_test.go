package labbase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

func TestOIDCacheLRU(t *testing.T) {
	c := newOIDCache[int](2)
	oid := func(i int) storage.OID { return storage.OID(i) }

	if _, ok := c.get(oid(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(oid(1), 10)
	c.put(oid(2), 20)
	if v, ok := c.get(oid(1)); !ok || v != 10 {
		t.Fatalf("get(1) = %v, %v; want 10, true", v, ok)
	}
	// 1 is now MRU; inserting 3 must evict 2 (LRU), not 1.
	c.put(oid(3), 30)
	if _, ok := c.get(oid(2)); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if v, ok := c.get(oid(1)); !ok || v != 10 {
		t.Fatalf("entry 1 evicted out of LRU order (got %v, %v)", v, ok)
	}
	if v, ok := c.get(oid(3)); !ok || v != 30 {
		t.Fatalf("get(3) = %v, %v; want 30, true", v, ok)
	}

	// put on an existing key refreshes value and recency, never grows.
	c.put(oid(1), 11)
	if v, _ := c.get(oid(1)); v != 11 {
		t.Fatalf("refresh failed: got %v, want 11", v)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	c.invalidate(oid(1))
	if _, ok := c.get(oid(1)); ok {
		t.Fatal("invalidated entry still cached")
	}
	c.invalidate(oid(999)) // absent key: no-op
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}

	// Single-entry edge cases around head/tail maintenance.
	c.invalidate(oid(3))
	c.put(oid(7), 70)
	c.put(oid(8), 80)
	c.put(oid(9), 90) // evicts 7
	if _, ok := c.get(oid(7)); ok {
		t.Fatal("entry 7 should have been evicted")
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
	if c.len() != 0 {
		t.Fatal("nil cache len != 0")
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
