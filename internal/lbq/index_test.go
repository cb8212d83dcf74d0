package lbq_test

// The index-driven externs: material/2 and state/2 with an unbound material
// walk labbase.IndexScanner when the reader has it and fall back to Reader
// listings when it does not. These tests hold the two paths to the same
// ordered answers on every store shape, pin the work a streamed walk does,
// and race the walks against a writer.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"labflow/internal/core"
	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/lbq"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// calls counts Reader calls by method name, and the OIDs the walks hand out
// under "state member" and "class member". Not safe for concurrent use.
type calls map[string]int

// countingReader counts the Reader calls a query makes. It embeds the
// Reader interface, so it hides any IndexScanner the wrapped reader has:
// a query through it takes the fallback path.
type countingReader struct {
	labbase.Reader
	n calls
}

func (c countingReader) States() []string {
	c.n["States"]++
	return c.Reader.States()
}

func (c countingReader) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	c.n["GetMaterial"]++
	return c.Reader.GetMaterial(oid)
}

func (c countingReader) State(oid storage.OID) (string, error) {
	c.n["State"]++
	return c.Reader.State(oid)
}

func (c countingReader) MaterialsInState(state string) ([]storage.OID, error) {
	c.n["MaterialsInState"]++
	return c.Reader.MaterialsInState(state)
}

func (c countingReader) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	c.n["ScanMaterials"]++
	return c.Reader.ScanMaterials(class, fn)
}

func (c countingReader) ScanAllMaterials(fn func(*labbase.Material) error) error {
	c.n["ScanAllMaterials"]++
	return c.Reader.ScanAllMaterials(fn)
}

func (c countingReader) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	c.n["MostRecent"]++
	return c.Reader.MostRecent(oid, attr)
}

// scanningReader is a countingReader that forwards the capability, counting
// each walk and every OID it hands to the query.
type scanningReader struct{ countingReader }

func (s scanningReader) ScanStateIndex(state string, fn func(storage.OID) error) error {
	s.n["ScanStateIndex"]++
	return labbase.WalkState(s.Reader, state, func(oid storage.OID) error {
		s.n["state member"]++
		return fn(oid)
	})
}

func (s scanningReader) ScanClassExtent(class string, fn func(storage.OID) error) error {
	s.n["ScanClassExtent"]++
	return labbase.WalkClass(s.Reader, class, func(oid storage.OID) error {
		s.n["class member"]++
		return fn(oid)
	})
}

var _ labbase.IndexScanner = scanningReader{}

// render prints a solution list in order, one line per solution.
func render(sols []datalog.Solution) string {
	lines := make([]string, len(sols))
	for i, sol := range sols {
		names := make([]string, 0, len(sol))
		for n := range sol {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for j, n := range names {
			parts[j] = n + "=" + sol[n].String()
		}
		lines[i] = strings.Join(parts, " ")
	}
	return strings.Join(lines, "\n")
}

// populate gives st the fixture every store shape shares: class clone with
// subclass tclone plus an unrelated class, three states of which "empty"
// never has a member, and materials whose names spread over two shards,
// some of them moved between states after creation.
func populate(t *testing.T, st labbase.Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.Begin())
	_, err := st.DefineMaterialClass("clone", "")
	must(err)
	_, err = st.DefineMaterialClass("tclone", "clone")
	must(err)
	_, err = st.DefineMaterialClass("gel", "")
	must(err)
	for _, s := range []string{"waiting", "done", "empty"} {
		_, err := st.DefineState(s)
		must(err)
	}
	var made []storage.OID
	for i := 0; i < 12; i++ {
		class := []string{"clone", "tclone", "gel"}[i%3]
		state := []string{"waiting", "done", ""}[i%4%3]
		oid, err := st.CreateMaterial(class, fmt.Sprintf("m%02d", i), state, int64(i))
		must(err)
		made = append(made, oid)
	}
	for _, i := range []int{0, 5, 7} {
		must(st.SetState(made[i], "done"))
	}
	must(st.SetState(made[2], "waiting"))
	must(st.Commit())
}

// openShards opens an n-shard in-process cluster over memstores: a router
// over n member servers.
func openShards(t *testing.T, n int) *shard.Router {
	t.Helper()
	sms := make([]storage.Manager, n)
	for k := range sms {
		sms[k] = memstore.Open("idx-mm")
	}
	db, err := shard.Open(sms, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openPlain(t *testing.T) *labbase.DB {
	t.Helper()
	db, err := labbase.Open(memstore.Open("idx-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestIndexWalkMatchesFallback runs every binding mode of material/2 and
// state/2 over a plain DB, one of its snapshots and a router over two
// members, and holds each ordered solution list to the same query through
// a wrapper that hides the capability.
func TestIndexWalkMatchesFallback(t *testing.T) {
	plain := openPlain(t)
	populate(t, plain)
	snap, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	router := openShards(t, 2)
	populate(t, router)

	stores := []struct {
		name  string
		store labbase.Store
		rd    labbase.Reader
	}{
		{"db", plain, plain},
		{"snap", plain, snap},
		{"router/2", router, router},
	}
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			if _, ok := s.rd.(labbase.IndexScanner); !ok {
				t.Fatalf("%T does not implement labbase.IndexScanner", s.rd)
			}
			c01, _ := s.rd.LookupMaterial("m01") // a tclone, in "done"
			b := lbq.New(s.store)
			cases := []struct {
				q    string
				max  int
				want int // solutions, the same on every store
			}{
				{"material(M, clone)", 0, 4},
				{"material(M, tclone)", 0, 4},
				{"material(M, gel)", 0, 4},
				{"material(M, clone)", 2, 2},
				{"material(M, nosuchclass)", 0, 0},
				{"material(M, C)", 0, 12},
				{"material(M, 7)", 0, 0},
				{fmt.Sprintf("material(%d, C)", int64(c01)), 0, 1},
				{fmt.Sprintf("material(%d, clone)", int64(c01)), 0, 0},
				{"material(999999, C)", 0, 0},
				{"setof(M, material(M, clone), L), length(L, N)", 0, 1},
				{"state(M, waiting)", 0, 5},
				{"state(M, done)", 0, 5},
				{"state(M, done)", 3, 3},
				{"state(M, empty)", 0, 0},
				{"state(M, nosuchstate)", 0, 0},
				{"state(M, S)", 0, 10},
				{"state(M, S)", 7, 7},
				{`state(M, "done")`, 0, 0},
				{fmt.Sprintf("state(%d, S)", int64(c01)), 0, 1},
				{"state(999999, S)", 0, 0},
				{"material(M, tclone), state(M, done)", 0, 2},
				{"state(M, done), material(M, tclone)", 0, 2},
			}
			for _, tc := range cases {
				fast, err := b.QueryOn(s.rd, tc.q, tc.max)
				if err != nil {
					t.Errorf("%s: %v", tc.q, err)
					continue
				}
				slow, err := b.QueryOn(countingReader{s.rd, calls{}}, tc.q, tc.max)
				if err != nil {
					t.Errorf("%s through the fallback: %v", tc.q, err)
					continue
				}
				if got, want := render(fast), render(slow); got != want {
					t.Errorf("%s (max %d):\nindex walk:\n%s\nfallback:\n%s", tc.q, tc.max, got, want)
				}
				if len(fast) != tc.want {
					t.Errorf("%s (max %d): %d solutions, want %d:\n%s", tc.q, tc.max, len(fast), tc.want, render(fast))
				}
			}
		})
	}
}

// TestBoundNonOIDFailsWithoutScanning: a bound first argument that is not
// an OID names no material, so the extern must fail before reading anything
// rather than fall into its enumerating mode.
func TestBoundNonOIDFailsWithoutScanning(t *testing.T) {
	db := openPlain(t)
	populate(t, db)
	b := lbq.New(db)
	for _, q := range []string{
		"material(foo, C)",
		`material("m01", C)`,
		"material(-1, C)",
		"material(f(X), clone)",
		"state(foo, S)",
		`state("x", S)`,
		"state(-1, S)",
		"state(-1, done)",
	} {
		n := calls{}
		sols, err := b.QueryOn(scanningReader{countingReader{db, n}}, q, 0)
		if err != nil {
			t.Errorf("%s: %v", q, err)
		}
		if len(sols) != 0 {
			t.Errorf("%s: %d solutions, want none", q, len(sols))
		}
		if len(n) != 0 {
			t.Errorf("%s made reader calls %v; want none", q, n)
		}
	}
}

// TestStreamedWalkBoundsWork pins, as deterministic counts, the work the
// streamed modes save: a max-limited join visits only the state members it
// joins, and count_finished/1 walks the clone extent instead of decoding
// every material.
func TestStreamedWalkBoundsWork(t *testing.T) {
	// The core package's test build: 12 base clones, 5 tclones each, run
	// through the whole workflow.
	p := core.DefaultParams()
	p.BaseClones, p.TclonesPerClone, p.Intervals = 12, 5, 2
	p.SeqLen, p.ReadLen, p.BatchSize = 600, 200, 8
	p.PoolPages, p.ResidentPages = 64, 64
	built, err := core.Build(core.StoreTexasMM, t.TempDir(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	b := lbq.New(built.DB)
	src, err := os.ReadFile(filepath.Join("..", "..", "rules", "labflow1.lbq"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Engine().Consult(string(src)); err != nil {
		t.Fatal(err)
	}
	snap, err := built.DB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	members, err := snap.CountInState(core.StTcloneDone)
	if err != nil || members <= 10 {
		t.Fatalf("%s has %d members (%v); the join needs more than 10", core.StTcloneDone, members, err)
	}
	n := calls{}
	q := fmt.Sprintf("state(M, %s), most_recent(M, quality, V)", core.StTcloneDone)
	sols, err := b.QueryOn(scanningReader{countingReader{snap, n}}, q, 10)
	if err != nil || len(sols) != 10 {
		t.Fatalf("%s (max 10) = %d solutions, %v", q, len(sols), err)
	}
	if n["state member"] != 10 || n["MostRecent"] != 10 || n["MaterialsInState"] != 0 || n["States"] != 0 {
		t.Errorf("%s (max 10) of %d members: %v; want 10 state members, 10 MostRecent, no listing", q, members, n)
	}

	n = calls{}
	sols, err = b.QueryOn(scanningReader{countingReader{snap, n}}, "count_finished(N)", 0)
	if err != nil || len(sols) != 1 {
		t.Fatalf("count_finished(N) = %v, %v", sols, err)
	}
	if n["ScanAllMaterials"] != 0 || n["ScanMaterials"] != 0 || n["GetMaterial"] != 0 {
		t.Errorf("count_finished(N) decoded materials: %v", n)
	}
	if n["class member"] == 0 || n["State"] > n["class member"] {
		t.Errorf("count_finished(N): %d State calls over %d clones; want at most one per clone (%v)",
			n["State"], n["class member"], n)
	}
	if got, want := sols[0]["N"].String(), fmt.Sprint(len(built.Clones)); got != want {
		t.Errorf("count_finished(N) = %s, want %s", got, want)
	}
}

// TestStreamedExternsUnderWriter races streamed state/2 and material/2
// walks through QueryOn on held snapshots against a writer that moves
// materials between states and creates materials of the walked class. Each
// answer list must be the snapshot's own listing, read after the query. A
// router's snapshot handle reads live state, so the store here is a plain
// DB.
func TestStreamedExternsUnderWriter(t *testing.T) {
	t.Run("db", func(t *testing.T) {
		db := openPlain(t)
		populate(t, db)
		raceWalks(t, db)
	})
}

func raceWalks(t *testing.T, db labbase.Store) {
	const writes, readers = 200, 3
	b := lbq.New(db)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		var made []storage.OID
		for i := 0; i < writes; i++ {
			err := db.Begin()
			if err == nil {
				var oid storage.OID
				oid, err = db.CreateMaterial("clone", fmt.Sprintf("w%03d", i), "waiting", int64(100+i))
				made = append(made, oid)
				if err == nil && i%2 == 1 {
					err = db.SetState(made[i/2], []string{"done", "waiting", ""}[i%3])
				}
				if cerr := db.Commit(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				t.Errorf("writer, op %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rounds := 0; rounds < 3 || !stop.Load(); rounds++ {
				if err := checkWalks(b, db); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkWalks runs the streamed queries on one held snapshot and compares
// each with the snapshot's own listing.
func checkWalks(b *lbq.Bridge, db labbase.Store) error {
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	answers := func(q string, max int) ([]string, error) {
		sols, err := b.QueryOn(snap, q, max)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		out := make([]string, len(sols))
		for i, sol := range sols {
			out[i] = sol["M"].String()
		}
		return out, nil
	}
	for _, state := range []string{"waiting", "done"} {
		for _, max := range []int{0, 3} {
			got, err := answers("state(M, "+state+")", max)
			if err != nil {
				return err
			}
			oids, err := snap.MaterialsInState(state)
			if err != nil {
				return err
			}
			if err := samePrefix("state(M, "+state+")", max, got, oids); err != nil {
				return err
			}
		}
	}
	for _, max := range []int{0, 3} {
		got, err := answers("material(M, clone)", max)
		if err != nil {
			return err
		}
		var oids []storage.OID
		err = snap.ScanMaterials("clone", func(m *labbase.Material) error {
			if m.Class == "clone" {
				oids = append(oids, m.OID)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := samePrefix("material(M, clone)", max, got, oids); err != nil {
			return err
		}
	}
	return nil
}

// samePrefix checks that got is want, or want's first max entries.
func samePrefix(q string, max int, got []string, want []storage.OID) error {
	if max > 0 && len(want) > max {
		want = want[:max]
	}
	ws := make([]string, len(want))
	for i, oid := range want {
		ws[i] = lbq.OIDTerm(oid).String()
	}
	if strings.Join(got, ",") != strings.Join(ws, ",") {
		return fmt.Errorf("%s (max %d) on one snapshot: answers %v, listing %v", q, max, got, ws)
	}
	return nil
}
