package labbase

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"labflow/internal/storage"
)

// loadReadSet creates mats materials, each with steps recorded steps, and
// returns their OIDs. Used by the concurrency and snapshot tests.
func loadReadSet(tb testing.TB, db *DB, mats, steps int) []storage.OID {
	tb.Helper()
	if err := db.Begin(); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.DefineState("new"); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := db.DefineStepClass("measure", []AttrDef{{Name: "reading", Kind: KindInt}}); err != nil {
		tb.Fatal(err)
	}
	oids := make([]storage.OID, mats)
	for i := range oids {
		oid, err := db.CreateMaterial("sample", fmt.Sprintf("m%d", i), "new", int64(i))
		if err != nil {
			tb.Fatal(err)
		}
		oids[i] = oid
		for j := 0; j < steps; j++ {
			if _, err := db.RecordStep(StepSpec{
				Class: "measure", ValidTime: int64(100*i + j),
				Materials: []storage.OID{oid},
				Attrs:     []AttrValue{{Name: "reading", Value: Int64(int64(1000*i + j))}},
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := db.Commit(); err != nil {
		tb.Fatal(err)
	}
	return oids
}

// TestConcurrentReaders runs every read-only entry point from many
// goroutines at once (run under -race). Values are asserted, not just
// fetched: concurrent reads must agree with what was loaded.
func TestConcurrentReaders(t *testing.T) {
	db := openMem(t)
	oids := loadReadSet(t, db, 16, 4)

	const readers = 8
	const rounds = 120
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < rounds; i++ {
				idx := rng.Intn(len(oids))
				oid := oids[idx]
				v, _, found, err := db.MostRecent(oid, "reading")
				if err != nil || !found || v.Int != int64(1000*idx+3) {
					errs <- fmt.Errorf("reader %d: MostRecent(%d) = %v %v: %w", r, idx, v, found, err)
					return
				}
				hist, err := db.History(oid)
				if err != nil || len(hist) != 4 {
					errs <- fmt.Errorf("reader %d: History(%d) = %d entries: %w", r, idx, len(hist), err)
					return
				}
				m, err := db.GetMaterial(oid)
				if err != nil || m.Name != fmt.Sprintf("m%d", idx) {
					errs <- fmt.Errorf("reader %d: GetMaterial(%d) = %+v: %w", r, idx, m, err)
					return
				}
				if st, err := db.State(oid); err != nil || st != "new" {
					errs <- fmt.Errorf("reader %d: State(%d) = %q: %w", r, idx, st, err)
					return
				}
				if _, err := db.AttrTimeline(oid, "reading"); err != nil {
					errs <- fmt.Errorf("reader %d: AttrTimeline: %w", r, err)
					return
				}
				if n, err := db.CountMaterials("sample"); err != nil || n != uint64(len(oids)) {
					errs <- fmt.Errorf("reader %d: CountMaterials = %d: %w", r, n, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWithWriter interleaves one writer (the supported
// single-writer regime) with racing readers: readers must always observe a
// complete, valid state — either before or after each step, never torn.
func TestConcurrentReadersWithWriter(t *testing.T) {
	db := openMem(t)
	oids := loadReadSet(t, db, 8, 2)

	const readers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := rng.Intn(len(oids))
				v, _, found, err := db.MostRecent(oids[idx], "reading")
				if err != nil || !found {
					errs <- fmt.Errorf("reader %d: MostRecent = %v %v: %w", r, v, found, err)
					return
				}
				if _, err := db.History(oids[idx]); err != nil {
					errs <- fmt.Errorf("reader %d: History: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200; i++ {
			if err := db.Begin(); err != nil {
				errs <- err
				return
			}
			if _, err := db.RecordStep(StepSpec{
				Class: "measure", ValidTime: int64(10000 + i),
				Materials: []storage.OID{oids[i%len(oids)]},
				Attrs:     []AttrValue{{Name: "reading", Value: Int64(int64(i))}},
			}); err != nil {
				errs <- err
				return
			}
			if err := db.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentCacheMissStress points every reader at ONE material so all
// cache misses collide on the same OID: each miss runs its own load and
// races to install it, and every reader must still get the right answer
// (run under -race, which would catch a torn install).
func TestConcurrentCacheMissStress(t *testing.T) {
	db := openMem(t)
	oids := loadReadSet(t, db, 1, 8)

	mr := mustMR(t, db, oids[0])
	for round := 0; round < 20; round++ {
		// Empty both caches so every round re-fills from a cold start.
		db.matCache.invalidate(oids[0])
		db.mrCache.invalidate(mr)
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for r := 0; r < 16; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, found, err := db.MostRecent(oids[0], "reading")
				if err != nil || !found || v.Int != 7 {
					errs <- fmt.Errorf("MostRecent = %v %v: %w", v, found, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// mustMR returns the material's most-recent index OID (test-only peek).
func mustMR(t *testing.T, db *DB, oid storage.OID) storage.OID {
	t.Helper()
	m, err := db.readMaterial(oid)
	if err != nil {
		t.Fatal(err)
	}
	return m.mrIndex
}
