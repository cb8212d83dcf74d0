package shard

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// openShards opens an n-shard in-process cluster over memstores. A test
// that must reach one shard behind the router's back takes its member from
// db.cluster.members.
func openShards(t *testing.T, n int) *Router {
	t.Helper()
	managers := make([]storage.Manager, n)
	for k := range managers {
		managers[k] = memstore.Open("test-mm")
	}
	db, err := Open(managers, labbase.DefaultOptions())
	if err != nil {
		t.Fatalf("Open(%d shards): %v", n, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func begin(t *testing.T, db labbase.Store) {
	t.Helper()
	if err := db.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
}

func commit(t *testing.T, db labbase.Store) {
	t.Helper()
	if err := db.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// nameOnShard returns a material name that ShardFor routes to the wanted
// shard, by deterministic probing.
func nameOnShard(t *testing.T, want, shards int, tag string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s-%d", tag, i)
		if ShardFor(name, shards) == want {
			return name
		}
	}
	t.Fatalf("no probe name found for shard %d/%d", want, shards)
	return ""
}

func TestOIDShardEncoding(t *testing.T) {
	for _, k := range []int{0, 1, 7, MaxShards - 1} {
		local := storage.MakeOID(3, 12345)
		global := withShard(local, k)
		if got := ShardOfOID(global); got != k {
			t.Fatalf("ShardOfOID(withShard(%v, %d)) = %d", local, k, got)
		}
		if got := withoutShard(global); got != local {
			t.Fatalf("withoutShard round trip: got %v want %v", got, local)
		}
		if global.Segment() != local.Segment() {
			t.Fatalf("shard bits leaked into segment: %v", global)
		}
	}
	// Shard 0 is the identity encoding: the byte-identity guarantee.
	local := storage.MakeOID(2, 99)
	if withShard(local, 0) != local {
		t.Fatalf("shard 0 encoding not identity")
	}
}

func TestMapperRejectsForeignOIDs(t *testing.T) {
	m := &mapper{inner: memstore.Open("test-mm"), shard: 1}
	defer m.Close()
	if err := m.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	oid, err := m.Allocate(1, []byte("x"))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if got := ShardOfOID(oid); got != 1 {
		t.Fatalf("allocated OID on shard %d, want 1", got)
	}
	if _, err := m.Read(oid); err != nil {
		t.Fatalf("Read own OID: %v", err)
	}
	foreign := withShard(withoutShard(oid), 2)
	if _, err := m.Read(foreign); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Read foreign OID: err = %v, want ErrNoSuchObject", err)
	}
	if err := m.Write(foreign, []byte("y")); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("Write foreign OID: err = %v, want ErrNoSuchObject", err)
	}
	if _, err := m.AllocateNear(foreign, []byte("z")); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("AllocateNear foreign anchor: err = %v, want ErrNoSuchObject", err)
	}
}

// sealRecorder is a fake storage manager that counts how its transactions
// end; its Seal hands back a durable wait that reports errDurable.
type sealRecorder struct {
	storage.Manager
	seals, commits, waits int
}

var errDurable = errors.New("the recorder's durable wait")

func (r *sealRecorder) Commit() error {
	r.commits++
	return r.Manager.Commit()
}

func (r *sealRecorder) Seal() (func() error, error) {
	r.seals++
	if err := r.Manager.Commit(); err != nil {
		return nil, err
	}
	return func() error { r.waits++; return errDurable }, nil
}

// TestMapperForwardsSeal: the mapper is a storage.Sealer that passes the
// inner manager's Seal — and its durable wait, uncalled — straight through,
// so a shard's labbase.DB seals exactly as it would over the bare manager;
// over a manager without Seal it falls back to the blocking Commit.
func TestMapperForwardsSeal(t *testing.T) {
	rec := &sealRecorder{Manager: memstore.Open("test-mm")}
	m := &mapper{inner: rec, shard: 1}
	defer m.Close()
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	durable, err := storage.Seal(m)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if rec.seals != 1 || rec.commits != 0 || rec.waits != 0 {
		t.Fatalf("after Seal: %d seals, %d commits, %d waits; want the inner Seal alone", rec.seals, rec.commits, rec.waits)
	}
	if err := durable(); !errors.Is(err, errDurable) || rec.waits != 1 {
		t.Fatalf("durable() = %v after %d waits: not the inner manager's wait", err, rec.waits)
	}

	// Through a labbase.DB on the mapper, as a shard runs it.
	db, err := labbase.Open(m, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sealsBefore, commitsBefore := rec.seals, rec.commits
	begin(t, db)
	if _, err := db.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, err := labbase.Seal(db); err != nil {
		t.Fatalf("labbase.Seal: %v", err)
	}
	if rec.seals != sealsBefore+1 || rec.commits != commitsBefore {
		t.Fatalf("a DB over the mapper ended its transaction with %d seals and %d commits; want one seal",
			rec.seals-sealsBefore, rec.commits-commitsBefore)
	}

	plain := &mapper{inner: struct{ storage.Manager }{memstore.Open("test-mm")}, shard: 1}
	defer plain.Close()
	if err := plain.Begin(); err != nil {
		t.Fatal(err)
	}
	if durable, err := storage.Seal(plain); err != nil || durable() != nil {
		t.Fatalf("Seal over a manager without it = %v; want its Commit and nothing to wait for", err)
	}
	if err := plain.Commit(); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("Commit after the fallback Seal = %v; the Seal should have committed", err)
	}
}

// closeCounter is a storage manager that counts its Closes and, with
// rootErr set, fails Root — so no database can be opened over it.
type closeCounter struct {
	storage.Manager
	rootErr error
	closes  int
}

func (m *closeCounter) Root() (storage.OID, error) {
	if m.rootErr != nil {
		return storage.NilOID, m.rootErr
	}
	return m.Manager.Root()
}

func (m *closeCounter) Close() error {
	m.closes++
	return m.Manager.Close()
}

// TestOpenOwnsManagersOnError: when no database can be opened over shard
// 1's manager, Open fails and every manager ends closed exactly once — the
// member it already opened, the failing one (OpenMember closes it) and the
// one after it.
func TestOpenOwnsManagersOnError(t *testing.T) {
	errRoot := errors.New("the manager's Root failure")
	counters := make([]*closeCounter, 3)
	managers := make([]storage.Manager, len(counters))
	for k := range counters {
		counters[k] = &closeCounter{Manager: memstore.Open("test-mm")}
		managers[k] = counters[k]
	}
	counters[1].rootErr = errRoot
	if _, err := Open(managers, labbase.DefaultOptions()); !errors.Is(err, errRoot) {
		t.Fatalf("Open over a failing shard 1 = %v, want its error", err)
	}
	for k, c := range counters {
		if c.closes != 1 {
			t.Errorf("Open closed manager %d %d times on error, want once", k, c.closes)
		}
	}
}

// loadWorkload drives the same shard-safe logical workload (single-material
// steps, as lfload issues) into any store: mats materials, one typed
// schema, steps recorded both through the txn bracket and through PutSteps.
func loadWorkload(t *testing.T, db labbase.Store, mats int) []string {
	t.Helper()
	begin(t, db)
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatalf("DefineMaterialClass: %v", err)
	}
	for _, s := range []string{"received", "measured", "done"} {
		if _, err := db.DefineState(s); err != nil {
			t.Fatalf("DefineState: %v", err)
		}
	}
	if _, _, err := db.DefineStepClass("measure", []labbase.AttrDef{
		{Name: "reading", Kind: labbase.KindInt},
	}); err != nil {
		t.Fatalf("DefineStepClass: %v", err)
	}
	names := make([]string, mats)
	for i := range names {
		names[i] = fmt.Sprintf("m-%d", i)
		if _, err := db.CreateMaterial("sample", names[i], "received", int64(i)); err != nil {
			t.Fatalf("CreateMaterial: %v", err)
		}
	}
	// Half the steps inside the bracket...
	for i := 0; i < mats; i++ {
		oid, ok := db.LookupMaterial(names[i])
		if !ok {
			t.Fatalf("LookupMaterial %q: missing", names[i])
		}
		if _, err := db.RecordStep(labbase.StepSpec{
			Class:     "measure",
			ValidTime: int64(1000 + i),
			Materials: []storage.OID{oid},
			Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i))}},
		}); err != nil {
			t.Fatalf("RecordStep: %v", err)
		}
	}
	commit(t, db)
	// ...and half through own-transaction PutSteps batches, including an
	// implicitly evolved attr set (exercises the cross-shard schema
	// broadcast on sharded stores).
	var specs []labbase.StepSpec
	for i := 0; i < mats; i++ {
		oid, _ := db.LookupMaterial(names[i])
		specs = append(specs, labbase.StepSpec{
			Class:     "measure",
			ValidTime: int64(2000 + i),
			Materials: []storage.OID{oid},
			Attrs: []labbase.AttrValue{
				{Name: "reading", Value: labbase.Int64(int64(10 * i))},
				{Name: "grade", Value: labbase.String(fmt.Sprintf("g%d", i%3))},
			},
		})
	}
	if _, err := db.PutSteps(specs); err != nil {
		t.Fatalf("PutSteps: %v", err)
	}
	// Move a third of the materials on.
	begin(t, db)
	for i := 0; i < mats; i += 3 {
		oid, _ := db.LookupMaterial(names[i])
		if err := db.SetState(oid, "measured"); err != nil {
			t.Fatalf("SetState: %v", err)
		}
	}
	commit(t, db)
	return names
}

// snapshot captures every observable read-side result keyed by material
// name (never OID), so stores with different shard counts are comparable.
type snapshot struct {
	classes   []string
	states    []string
	stepCls   []string
	versions  [][]string
	inState   map[string][]string // state -> sorted material names
	counts    map[string]uint64
	materials map[string]labbase.Material // keyed by name, OID zeroed
	recent    map[string]int64            // name -> most-recent "reading"
	histLen   map[string]int
	dump      labbase.DumpStats
}

func snap(t *testing.T, db labbase.Store, names []string) *snapshot {
	t.Helper()
	s := &snapshot{
		inState:   map[string][]string{},
		counts:    map[string]uint64{},
		materials: map[string]labbase.Material{},
		recent:    map[string]int64{},
		histLen:   map[string]int{},
	}
	s.classes = db.MaterialClasses()
	s.states = db.States()
	s.stepCls = db.StepClasses()
	var err error
	s.versions, err = db.StepClassVersions("measure")
	if err != nil {
		t.Fatalf("StepClassVersions: %v", err)
	}
	oidName := map[storage.OID]string{}
	for _, name := range names {
		oid, ok := db.LookupMaterial(name)
		if !ok {
			t.Fatalf("LookupMaterial %q: missing", name)
		}
		oidName[oid] = name
		m, err := db.GetMaterial(oid)
		if err != nil {
			t.Fatalf("GetMaterial %q: %v", name, err)
		}
		mm := *m
		mm.OID = 0
		s.materials[name] = mm
		v, _, found, err := db.MostRecent(oid, "reading")
		if err != nil || !found {
			t.Fatalf("MostRecent %q: found=%v err=%v", name, found, err)
		}
		s.recent[name] = v.Int
		h, err := db.History(oid)
		if err != nil {
			t.Fatalf("History %q: %v", name, err)
		}
		s.histLen[name] = len(h)
	}
	for _, st := range s.states {
		oids, err := db.MaterialsInState(st)
		if err != nil {
			t.Fatalf("MaterialsInState(%q): %v", st, err)
		}
		var got []string
		for _, oid := range oids {
			got = append(got, oidName[oid])
		}
		sort.Strings(got)
		s.inState[st] = got
		c, err := db.CountInState(st)
		if err != nil {
			t.Fatalf("CountInState(%q): %v", st, err)
		}
		s.counts["state:"+st] = c
	}
	cm, err := db.CountMaterials("sample")
	if err != nil {
		t.Fatalf("CountMaterials: %v", err)
	}
	s.counts["materials"] = cm
	cs, err := db.CountSteps("measure")
	if err != nil {
		t.Fatalf("CountSteps: %v", err)
	}
	s.counts["steps"] = cs
	var scanned uint64
	if err := db.ScanAllMaterials(func(*labbase.Material) error { scanned++; return nil }); err != nil {
		t.Fatalf("ScanAllMaterials: %v", err)
	}
	s.counts["scanned"] = scanned
	var stepScan uint64
	if err := db.ScanSteps("measure", func(*labbase.Step) error { stepScan++; return nil }); err != nil {
		t.Fatalf("ScanSteps: %v", err)
	}
	s.counts["stepScan"] = stepScan
	s.dump, err = db.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return s
}

// TestScatterGatherMatchesOneShard is the read-equivalence acceptance
// test: the same logical workload on 1 shard and on 4 shards yields
// identical scatter-gather results (keyed by name, the shard-independent
// identity).
func TestScatterGatherMatchesOneShard(t *testing.T) {
	one := openShards(t, 1)
	four := openShards(t, 4)
	const mats = 60
	names := loadWorkload(t, one, mats)
	if got := loadWorkload(t, four, mats); !reflect.DeepEqual(got, names) {
		t.Fatalf("workload names diverged")
	}
	// The workload must actually span shards for the test to mean much.
	used := map[int]bool{}
	for _, n := range names {
		used[ShardFor(n, 4)] = true
	}
	if len(used) < 3 {
		t.Fatalf("workload only touched shards %v", used)
	}
	s1 := snap(t, one, names)
	s4 := snap(t, four, names)
	if !reflect.DeepEqual(s1, s4) {
		t.Fatalf("snapshots differ:\n1-shard: %+v\n4-shard: %+v", s1, s4)
	}
}

// TestMaterialsInStateSorted pins the merge rule: concatenating per-shard
// OID-sorted lists in shard order is globally OID-sorted, because the
// shard number lives above the index bits.
func TestMaterialsInStateSorted(t *testing.T) {
	db := openShards(t, 4)
	loadWorkload(t, db, 40)
	oids, err := db.MaterialsInState("received")
	if err != nil {
		t.Fatalf("MaterialsInState: %v", err)
	}
	if len(oids) == 0 {
		t.Fatal("no materials in state")
	}
	for i := 1; i < len(oids); i++ {
		if oids[i-1] >= oids[i] {
			t.Fatalf("result not strictly OID-sorted at %d: %v >= %v", i, oids[i-1], oids[i])
		}
	}
}

// TestCatalogIdenticalAcrossShards asserts the broadcast invariant: after
// a workload with both explicit Define* and implicit schema evolution,
// every shard holds an identical catalog, and defining an existing name on
// any shard returns the same ID everywhere.
func TestCatalogIdenticalAcrossShards(t *testing.T) {
	db := openShards(t, 4)
	loadWorkload(t, db, 40)
	members := db.cluster.members
	ref := members[0]
	for k := 1; k < len(members); k++ {
		sh := members[k]
		if got, want := sh.MaterialClasses(), ref.MaterialClasses(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d material classes %v != shard 0 %v", k, got, want)
		}
		if got, want := sh.States(), ref.States(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d states %v != shard 0 %v", k, got, want)
		}
		if got, want := sh.StepClasses(), ref.StepClasses(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d step classes %v != shard 0 %v", k, got, want)
		}
		for _, sc := range ref.StepClasses() {
			want, err := ref.StepClassVersions(sc)
			if err != nil {
				t.Fatalf("shard 0 versions(%q): %v", sc, err)
			}
			got, err := sh.StepClassVersions(sc)
			if err != nil {
				t.Fatalf("shard %d versions(%q): %v", k, sc, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d versions(%q) %v != shard 0 %v", k, sc, got, want)
			}
		}
	}
	// Redefinition returns identical IDs on every shard.
	begin(t, db)
	defer commit(t, db)
	var want labbase.AttrID
	for k, m := range members {
		id, err := m.DefineAttr("reading", labbase.KindInt)
		if err != nil {
			t.Fatalf("shard %d DefineAttr: %v", k, err)
		}
		if k == 0 {
			want = id
		} else if id != want {
			t.Fatalf("shard %d attr ID %d != shard 0 %d", k, id, want)
		}
	}
}

// TestCrossShardRejected pins the single-partition contract.
func TestCrossShardRejected(t *testing.T) {
	db := openShards(t, 4)
	begin(t, db)
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.DefineStepClass("measure", nil); err != nil {
		t.Fatal(err)
	}
	n0 := nameOnShard(t, 0, 4, "x")
	n1 := nameOnShard(t, 1, 4, "x")
	a, err := db.CreateMaterial("sample", n0, "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateMaterial("sample", n1, "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ShardOfOID(a) == ShardOfOID(b) {
		t.Fatalf("probe materials landed on one shard")
	}
	if _, err := db.CreateMaterialSet([]storage.OID{a, b}); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard set: err = %v, want ErrCrossShard", err)
	}
	if _, err := db.RecordStep(labbase.StepSpec{
		Class: "measure", ValidTime: 5, Materials: []storage.OID{a, b},
	}); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard step: err = %v, want ErrCrossShard", err)
	}
	commit(t, db)

	// A batch with a cross-shard entry is rejected whole, before anything
	// applies, and the error carries the entry index.
	before, err := db.CountSteps("measure")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.PutSteps([]labbase.StepSpec{
		{Class: "measure", ValidTime: 6, Materials: []storage.OID{a}},
		{Class: "measure", ValidTime: 7, Materials: []storage.OID{a, b}},
	})
	if !errors.Is(err, ErrCrossShard) || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("batch with cross-shard entry: err = %v, want ErrCrossShard naming entry 1", err)
	}
	after, err := db.CountSteps("measure")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("rejected batch applied %d steps", after-before)
	}

	// A wrong-shard OID smuggled past routing (same-shard by bits but
	// unknown shard number) fails as a missing object.
	bogus := withShard(withoutShard(a), 9)
	if _, err := db.GetMaterial(bogus); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Fatalf("out-of-range shard OID: err = %v, want ErrNoSuchObject", err)
	}
}

// TestBeginUnwindsWhenShardRefuses drives the partial-Begin unwind through
// real servers: shard 1's store already holds a transaction of its own, so
// the broadcast Begin is refused there after shard 0 accepted. Shard 0's
// bracket must not be left open — the next broadcast Begin has to succeed
// once shard 1 is free again.
func TestBeginUnwindsWhenShardRefuses(t *testing.T) {
	db := openShards(t, 3)
	members := db.cluster.members
	if err := members[1].Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err == nil || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("Begin over a busy shard 1 = %v, want its refusal", err)
	}
	if db.InTxn() || members[0].InTxn() || members[2].InTxn() {
		t.Fatal("a refused Begin left a bracket open")
	}
	if err := members[1].Commit(); err != nil {
		t.Fatal(err)
	}
	begin(t, db)
	commit(t, db)
}

// TestPutStepsPerShardErrorIndex pins the cross-shard atomicity contract:
// the failing entry's original index is reported, and entries grouped onto
// other shards commit regardless.
func TestPutStepsPerShardErrorIndex(t *testing.T) {
	db := openShards(t, 2)
	begin(t, db)
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	// A strictly typed attr makes a later string-valued step fail at
	// record time, after routing and schema checks pass.
	if _, _, err := db.DefineStepClass("measure", []labbase.AttrDef{
		{Name: "reading", Kind: labbase.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	n0 := nameOnShard(t, 0, 2, "y")
	n1 := nameOnShard(t, 1, 2, "y")
	a, err := db.CreateMaterial("sample", n0, "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateMaterial("sample", n1, "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)

	_, err = db.PutSteps([]labbase.StepSpec{
		{Class: "measure", ValidTime: 1, Materials: []storage.OID{a},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(1)}}},
		{Class: "measure", ValidTime: 2, Materials: []storage.OID{b},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.String("bad")}}},
		{Class: "measure", ValidTime: 3, Materials: []storage.OID{a},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(3)}}},
	})
	if err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("err = %v, want failure naming entry 1", err)
	}
	if !errors.Is(err, labbase.ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch in chain", err)
	}
	// Shard 0's group (entries 0 and 2) committed; shard 1's did not.
	ha, err := db.History(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(ha) != 2 {
		t.Fatalf("material a history = %d entries, want 2 (its shard's group committed)", len(ha))
	}
	hb, err := db.History(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(hb) != 0 {
		t.Fatalf("material b history = %d entries, want 0 (its entry failed)", len(hb))
	}
}

// TestPutStepsConcurrent hammers out-of-transaction PutSteps from many
// goroutines (the rule ConcurrentBatches states) and verifies the total.
// Run under -race this is the fan-out safety test.
func TestPutStepsConcurrent(t *testing.T) {
	db := openShards(t, 4)
	const mats = 32
	names := make([]string, mats)
	oids := make([]storage.OID, mats)
	begin(t, db)
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = fmt.Sprintf("c-%d", i)
		oid, err := db.CreateMaterial("sample", names[i], "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	commit(t, db)

	const (
		workers = 8
		batches = 20
		perB    = 16
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				specs := make([]labbase.StepSpec, perB)
				for i := range specs {
					m := (w*31 + b*7 + i) % mats
					specs[i] = labbase.StepSpec{
						Class:     "measure",
						ValidTime: int64(w*1000000 + b*1000 + i),
						Materials: []storage.OID{oids[m]},
						Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i))}},
					}
				}
				if _, err := db.PutSteps(specs); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	got, err := db.CountSteps("measure")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(workers * batches * perB); got != want {
		t.Fatalf("CountSteps = %d, want %d", got, want)
	}
	var histTotal int
	for _, oid := range oids {
		h, err := db.History(oid)
		if err != nil {
			t.Fatal(err)
		}
		histTotal += len(h)
	}
	if want := workers * batches * perB; histTotal != want {
		t.Fatalf("sum of history lengths = %d, want %d", histTotal, want)
	}
}

// TestShardForDeterministic pins the routing hash: it is part of the
// on-disk contract, so a change would orphan existing shards.
func TestShardForDeterministic(t *testing.T) {
	cases := map[string]int{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("m-%d", i)
		cases[name] = ShardFor(name, 4)
	}
	for name, want := range cases {
		if got := ShardFor(name, 4); got != want {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", name, want, got)
		}
	}
	if ShardFor("anything", 1) != 0 {
		t.Fatal("1-shard routing must be 0")
	}
}
