package labbase

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/texas"
)

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open(memstore.Open("test-mm"), DefaultOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func begin(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
}

func commit(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// defineBasics installs a small genome-flavoured schema used across tests.
func defineBasics(t *testing.T, db *DB) {
	t.Helper()
	begin(t, db)
	mustDefine := func(name, parent string) {
		if _, err := db.DefineMaterialClass(name, parent); err != nil {
			t.Fatalf("DefineMaterialClass(%q): %v", name, err)
		}
	}
	mustDefine("material", "")
	mustDefine("clone", "material")
	mustDefine("tclone", "clone")
	for _, s := range []string{"waiting_for_prep", "waiting_for_sequencing", "waiting_for_incorporation", "done"} {
		if _, err := db.DefineState(s); err != nil {
			t.Fatalf("DefineState(%q): %v", s, err)
		}
	}
	if _, _, err := db.DefineStepClass("determine_sequence", []AttrDef{
		{Name: "sequence", Kind: KindString},
		{Name: "quality", Kind: KindFloat},
		{Name: "ok", Kind: KindBool},
	}); err != nil {
		t.Fatalf("DefineStepClass: %v", err)
	}
	commit(t, db)
}

func TestStorageSchemaMatchesPaperTable1(t *testing.T) {
	got := StorageSchema()
	want := []string{"sm_step", "sm_material", "material_set"}
	if len(got) != len(want) {
		t.Fatalf("StorageSchema = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StorageSchema[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCreateAndGetMaterial(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	oid, err := db.CreateMaterial("clone", "c0001", "waiting_for_prep", 100)
	if err != nil {
		t.Fatalf("CreateMaterial: %v", err)
	}
	commit(t, db)

	m, err := db.GetMaterial(oid)
	if err != nil {
		t.Fatalf("GetMaterial: %v", err)
	}
	if m.Class != "clone" || m.Name != "c0001" || m.State != "waiting_for_prep" || m.CreatedAt != 100 || m.HistoryLen != 0 {
		t.Errorf("GetMaterial = %+v", m)
	}
	if st, err := db.State(oid); err != nil || st != "waiting_for_prep" {
		t.Errorf("State = %q, %v", st, err)
	}
	if _, err := db.GetMaterial(storage.MakeOID(storage.SegMaterial, 999)); err == nil {
		t.Error("GetMaterial of missing OID should fail")
	}
	if _, err := db.readMaterial(storage.MakeOID(storage.SegHistory, 1)); !errors.Is(err, ErrNotMaterial) {
		t.Errorf("non-material read = %v, want ErrNotMaterial", err)
	}

	begin(t, db)
	if _, err := db.CreateMaterial("nosuch", "x", "", 0); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("unknown class = %v", err)
	}
	if _, err := db.CreateMaterial("clone", "x", "nostate", 0); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown state = %v", err)
	}
	commit(t, db)
}

func TestRecordStepAndMostRecent(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	m, err := db.CreateMaterial("tclone", "t1", "waiting_for_sequencing", 1)
	if err != nil {
		t.Fatal(err)
	}
	step1, err := db.RecordStep(StepSpec{
		Class:     "determine_sequence",
		ValidTime: 10,
		Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("ACGT")},
			{Name: "quality", Value: Float64(0.91)},
			{Name: "ok", Value: Bool(true)},
		},
	})
	if err != nil {
		t.Fatalf("RecordStep: %v", err)
	}
	commit(t, db)

	v, src, ok, err := db.MostRecent(m, "sequence")
	if err != nil || !ok {
		t.Fatalf("MostRecent: ok=%v err=%v", ok, err)
	}
	if v.Str != "ACGT" || src != step1 {
		t.Errorf("MostRecent = %v from %v", v, src)
	}

	// A newer (by valid time) step supersedes.
	begin(t, db)
	step2, err := db.RecordStep(StepSpec{
		Class:     "determine_sequence",
		ValidTime: 20,
		Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("GGGG")},
			{Name: "quality", Value: Float64(0.99)},
			{Name: "ok", Value: Bool(true)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	v, src, ok, _ = db.MostRecent(m, "sequence")
	if !ok || v.Str != "GGGG" || src != step2 {
		t.Errorf("MostRecent after newer step = %v from %v", v, src)
	}

	// An *older* step arriving late must NOT supersede: valid time, not
	// transaction time, is what counts.
	begin(t, db)
	if _, err := db.RecordStep(StepSpec{
		Class:     "determine_sequence",
		ValidTime: 15,
		Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("TTTT")},
			{Name: "quality", Value: Float64(0.5)},
			{Name: "ok", Value: Bool(false)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	v, src, ok, _ = db.MostRecent(m, "sequence")
	if !ok || v.Str != "GGGG" || src != step2 {
		t.Errorf("MostRecent after out-of-order insert = %v from %v, want GGGG from %v", v, src, step2)
	}

	// History is in insertion order and has all three events.
	hist, err := db.History(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("History len = %d, want 3", len(hist))
	}
	if hist[0].ValidTime != 10 || hist[1].ValidTime != 20 || hist[2].ValidTime != 15 {
		t.Errorf("History valid times = %v", hist)
	}
	if mm, _ := db.GetMaterial(m); mm.HistoryLen != 3 {
		t.Errorf("HistoryLen = %d, want 3", mm.HistoryLen)
	}

	// Unknown attribute: error. Unassigned attribute: ok=false.
	if _, _, _, err := db.MostRecent(m, "nonexistent"); !errors.Is(err, ErrUnknownAttr) {
		t.Errorf("unknown attr = %v", err)
	}
	begin(t, db)
	if _, err := db.DefineAttr("unassigned", KindInt); err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	if _, _, ok, err := db.MostRecent(m, "unassigned"); err != nil || ok {
		t.Errorf("unassigned attr: ok=%v err=%v, want ok=false", ok, err)
	}
}

func TestMostRecentIndexMatchesScanOracle(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	m, err := db.CreateMaterial("tclone", "t", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Record 300 steps with pseudo-random, colliding valid times across two
	// attributes, far past one history chunk.
	attrs := []string{"sequence", "quality"}
	for i := 0; i < 300; i++ {
		vt := int64((i * 7919) % 97) // many collisions, out of order
		a := attrs[i%2]
		var v Value
		if a == "sequence" {
			v = String(fmt.Sprintf("s%d", i))
		} else {
			v = Float64(float64(i))
		}
		if _, err := db.RecordStep(StepSpec{
			Class: "determine_sequence", ValidTime: vt,
			Materials: []storage.OID{m},
			Attrs:     []AttrValue{{Name: a, Value: v}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)

	for _, a := range attrs {
		iv, istep, iok, err := db.MostRecent(m, a)
		if err != nil {
			t.Fatal(err)
		}
		sv, sstep, sok, err := db.MostRecentScan(m, a)
		if err != nil {
			t.Fatal(err)
		}
		if iok != sok || !iv.Equal(sv) || istep != sstep {
			t.Errorf("attr %q: index (%v,%v,%v) != scan (%v,%v,%v)", a, iv, istep, iok, sv, sstep, sok)
		}
	}
}

func TestSchemaEvolutionByAttributeSet(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	m, _ := db.CreateMaterial("clone", "c", "", 0)

	// Version 1 was defined in defineBasics. Record one instance.
	s1, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 1, Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("AC")},
			{Name: "quality", Value: Float64(1)},
			{Name: "ok", Value: Bool(true)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The workflow is re-engineered: the step now also reports read_length.
	// Recording with the new attribute set implicitly creates version 2.
	s2, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 2, Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("ACGT")},
			{Name: "quality", Value: Float64(1)},
			{Name: "ok", Value: Bool(true)},
			{Name: "read_length", Value: Int64(4)},
		},
	})
	if err != nil {
		t.Fatalf("evolved RecordStep: %v", err)
	}
	commit(t, db)

	st1, _ := db.GetStep(s1)
	st2, _ := db.GetStep(s2)
	if st1.Version != 1 {
		t.Errorf("old instance version = %d, want 1", st1.Version)
	}
	if st2.Version != 2 {
		t.Errorf("new instance version = %d, want 2", st2.Version)
	}
	// Old instances are untouched by evolution: no read_length.
	if _, ok := st1.Attr("read_length"); ok {
		t.Error("old instance gained the new attribute")
	}
	vers, err := db.StepClassVersions("determine_sequence")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 2 {
		t.Fatalf("versions = %d, want 2", len(vers))
	}
	if len(vers[0]) != 3 || len(vers[1]) != 4 {
		t.Errorf("version attr counts = %d, %d; want 3, 4", len(vers[0]), len(vers[1]))
	}

	// Re-recording with version 1's attribute set reuses version 1.
	begin(t, db)
	s3, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 3, Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "ok", Value: Bool(false)},
			{Name: "sequence", Value: String("A")},
			{Name: "quality", Value: Float64(0)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	if st3, _ := db.GetStep(s3); st3.Version != 1 {
		t.Errorf("attr-set match version = %d, want 1 (order must not matter)", st3.Version)
	}
}

func TestKindChecking(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	m, _ := db.CreateMaterial("clone", "c", "", 0)
	_, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 1, Materials: []storage.OID{m},
		Attrs: []AttrValue{
			{Name: "sequence", Value: Int64(42)}, // declared KindString
			{Name: "quality", Value: Float64(1)},
			{Name: "ok", Value: Bool(true)},
		},
	})
	if !errors.Is(err, ErrKindMismatch) {
		t.Errorf("kind mismatch = %v, want ErrKindMismatch", err)
	}
	if _, err := db.DefineAttr("quality", KindString); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("conflicting redefine = %v, want ErrKindMismatch", err)
	}
	commit(t, db)
}

func TestStatesAndCounts(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	var clones []storage.OID
	for i := 0; i < 10; i++ {
		oid, err := db.CreateMaterial("clone", fmt.Sprintf("c%d", i), "waiting_for_prep", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, oid)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.CreateMaterial("tclone", fmt.Sprintf("t%d", i), "waiting_for_sequencing", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)

	if n, _ := db.CountMaterials("clone"); n != 14 { // includes tclone subclass
		t.Errorf("CountMaterials(clone) = %d, want 14", n)
	}
	if n, _ := db.CountMaterials("tclone"); n != 4 {
		t.Errorf("CountMaterials(tclone) = %d, want 4", n)
	}
	if n, _ := db.CountMaterials("material"); n != 14 {
		t.Errorf("CountMaterials(material) = %d, want 14", n)
	}
	if n, _ := db.CountInState("waiting_for_prep"); n != 10 {
		t.Errorf("CountInState = %d, want 10", n)
	}

	begin(t, db)
	if err := db.SetState(clones[0], "done"); err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	if n, _ := db.CountInState("waiting_for_prep"); n != 9 {
		t.Errorf("after SetState CountInState = %d, want 9", n)
	}
	if n, _ := db.CountInState("done"); n != 1 {
		t.Errorf("CountInState(done) = %d, want 1", n)
	}
	ms, err := db.MaterialsInState("done")
	if err != nil || len(ms) != 1 || ms[0] != clones[0] {
		t.Errorf("MaterialsInState(done) = %v, %v", ms, err)
	}

	// Scans: subclass-inclusive.
	var scanned int
	if err := db.ScanMaterials("clone", func(m *Material) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if scanned != 14 {
		t.Errorf("ScanMaterials visited %d, want 14", scanned)
	}
	if _, err := db.CountMaterials("nosuch"); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("CountMaterials unknown = %v", err)
	}
	if _, err := db.CountInState("nosuch"); !errors.Is(err, ErrUnknownState) {
		t.Errorf("CountInState unknown = %v", err)
	}
}

func TestMaterialSetsAndBatchSteps(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	var members []storage.OID
	for i := 0; i < 5; i++ {
		oid, err := db.CreateMaterial("tclone", fmt.Sprintf("t%d", i), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, oid)
	}
	set, err := db.CreateMaterialSet(members)
	if err != nil {
		t.Fatalf("CreateMaterialSet: %v", err)
	}
	got, err := db.SetMembers(set)
	if err != nil || len(got) != 5 {
		t.Fatalf("SetMembers = %v, %v", got, err)
	}

	// One batched gel-run step touches every member's history.
	step, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 50, Set: set,
		Attrs: []AttrValue{
			{Name: "sequence", Value: String("BATCH")},
			{Name: "quality", Value: Float64(0.8)},
			{Name: "ok", Value: Bool(true)},
		},
	})
	if err != nil {
		t.Fatalf("batch RecordStep: %v", err)
	}
	commit(t, db)

	for _, m := range members {
		hist, err := db.History(m)
		if err != nil || len(hist) != 1 || hist[0].Step != step {
			t.Fatalf("member %v history = %v, %v", m, hist, err)
		}
		v, _, ok, err := db.MostRecent(m, "sequence")
		if err != nil || !ok || v.Str != "BATCH" {
			t.Fatalf("member %v MostRecent = %v, %v, %v", m, v, ok, err)
		}
	}
	// One step instance, counted once.
	if n, _ := db.CountSteps("determine_sequence"); n != 1 {
		t.Errorf("CountSteps = %d, want 1", n)
	}
	st, err := db.GetStep(step)
	if err != nil || st.Set != set {
		t.Errorf("GetStep.Set = %v, %v", st, err)
	}

	begin(t, db)
	if _, err := db.CreateMaterialSet([]storage.OID{storage.MakeOID(storage.SegMaterial, 9999)}); err == nil {
		t.Error("set over missing material should fail")
	}
	if _, err := db.RecordStep(StepSpec{Class: "determine_sequence", ValidTime: 1}); err == nil {
		t.Error("step with no materials should fail")
	}
	commit(t, db)
}

func TestDump(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	var mats []storage.OID
	for i := 0; i < 6; i++ {
		oid, _ := db.CreateMaterial("clone", fmt.Sprintf("c%d", i), "", 0)
		mats = append(mats, oid)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.RecordStep(StepSpec{
			Class: "determine_sequence", ValidTime: int64(i),
			Materials: []storage.OID{mats[i%len(mats)]},
			Attrs: []AttrValue{
				{Name: "sequence", Value: String("ACGT")},
				{Name: "quality", Value: Float64(1)},
				{Name: "ok", Value: Bool(true)},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)
	st, err := db.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if st.Materials != 6 || st.Steps != 20 || st.AttrValues != 60 || st.HistoryRead != 20 {
		t.Errorf("Dump = %+v", st)
	}
}

// TestPersistenceAcrossReopen exercises the full wrapper against a real
// persistent store: schema, materials, histories, counters and the state
// index must all survive close/reopen.
func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.db")
	sm, err := texas.Open(texas.Options{Path: path, Clustering: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(sm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineBasics(t, db)
	begin(t, db)
	m, err := db.CreateMaterial("tclone", "t-persist", "waiting_for_sequencing", 5)
	if err != nil {
		t.Fatal(err)
	}
	var lastStep storage.OID
	for i := 0; i < 130; i++ { // cross a chunk boundary
		lastStep, err = db.RecordStep(StepSpec{
			Class: "determine_sequence", ValidTime: int64(i),
			Materials: []storage.OID{m},
			Attrs: []AttrValue{
				{Name: "sequence", Value: String(fmt.Sprintf("seq-%d", i))},
				{Name: "quality", Value: Float64(float64(i))},
				{Name: "ok", Value: Bool(i%2 == 0)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	sm2, err := texas.Open(texas.Options{Path: path, Clustering: true})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(sm2, DefaultOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()

	got, err := db2.GetMaterial(m)
	if err != nil || got.Name != "t-persist" || got.State != "waiting_for_sequencing" || got.HistoryLen != 130 {
		t.Fatalf("reopened material = %+v, %v", got, err)
	}
	v, src, ok, err := db2.MostRecent(m, "sequence")
	if err != nil || !ok || v.Str != "seq-129" || src != lastStep {
		t.Fatalf("reopened MostRecent = %v, %v, %v, %v", v, src, ok, err)
	}
	hist, err := db2.History(m)
	if err != nil || len(hist) != 130 {
		t.Fatalf("reopened History len = %d, %v", len(hist), err)
	}
	for i, h := range hist {
		if h.ValidTime != int64(i) {
			t.Fatalf("history[%d].ValidTime = %d", i, h.ValidTime)
		}
	}
	if n, _ := db2.CountSteps("determine_sequence"); n != 130 {
		t.Errorf("reopened CountSteps = %d, want 130", n)
	}
	// The in-memory state index was rebuilt from the materials.
	ms, err := db2.MaterialsInState("waiting_for_sequencing")
	if err != nil || len(ms) != 1 || ms[0] != m {
		t.Errorf("reopened MaterialsInState = %v, %v", ms, err)
	}
	// Schema survived: version count still 1, 4 states, 3 classes.
	if vers, _ := db2.StepClassVersions("determine_sequence"); len(vers) != 1 {
		t.Errorf("reopened versions = %d, want 1", len(vers))
	}
	if got := db2.States(); len(got) != 4 {
		t.Errorf("reopened states = %v", got)
	}
	if got := db2.MaterialClasses(); len(got) != 3 {
		t.Errorf("reopened classes = %v", got)
	}
	// And evolution continues from where it was.
	begin(t, db2)
	s, err := db2.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 999, Materials: []storage.OID{m},
		Attrs: []AttrValue{{Name: "sequence", Value: String("post-reopen")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db2)
	if st, _ := db2.GetStep(s); st.Version != 2 {
		t.Errorf("post-reopen evolved version = %d, want 2", st.Version)
	}
}

func TestNameIndex(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	c1, err := db.CreateMaterial("clone", "c-alpha", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateMaterial("clone", "", "", 1); err != nil {
		t.Fatalf("anonymous material: %v", err)
	}
	if _, err := db.CreateMaterial("clone", "", "", 1); err != nil {
		t.Fatalf("second anonymous material: %v", err)
	}
	// Duplicate names are rejected: the name is the key.
	if _, err := db.CreateMaterial("tclone", "c-alpha", "", 2); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate name = %v, want ErrDuplicateName", err)
	}
	commit(t, db)

	oid, ok := db.LookupMaterial("c-alpha")
	if !ok || oid != c1 {
		t.Fatalf("LookupMaterial = %v, %v", oid, ok)
	}
	if _, ok := db.LookupMaterial("nonexistent"); ok {
		t.Error("lookup of unknown name should miss")
	}
	if _, ok := db.LookupMaterial(""); ok {
		t.Error("empty name should not be indexed")
	}
}

func TestNameIndexSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "names.db")
	sm, err := texas.Open(texas.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(sm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineBasics(t, db)
	begin(t, db)
	want, err := db.CreateMaterial("clone", "persistent-name", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	sm2, err := texas.Open(texas.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(sm2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	oid, ok := db2.LookupMaterial("persistent-name")
	if !ok || oid != want {
		t.Fatalf("after reopen LookupMaterial = %v, %v; want %v", oid, ok, want)
	}
	// And uniqueness still holds against the rebuilt index.
	begin(t, db2)
	if _, err := db2.CreateMaterial("clone", "persistent-name", "", 2); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate after reopen = %v", err)
	}
	commit(t, db2)
}

func TestMutationsRequireTxn(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	if _, err := db.CreateMaterial("clone", "x", "", 0); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("CreateMaterial outside txn = %v", err)
	}
	if _, err := db.DefineState("s"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("DefineState outside txn = %v", err)
	}
	if err := db.Commit(); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("Commit outside txn = %v", err)
	}
}

func TestMultiMaterialStep(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	a, _ := db.CreateMaterial("clone", "a", "", 0)
	b, _ := db.CreateMaterial("tclone", "b", "", 0)
	step, err := db.RecordStep(StepSpec{
		Class: "determine_sequence", ValidTime: 7,
		Materials: []storage.OID{a, b},
		Attrs:     []AttrValue{{Name: "sequence", Value: String("SHARED")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, db)
	for _, m := range []storage.OID{a, b} {
		v, src, ok, err := db.MostRecent(m, "sequence")
		if err != nil || !ok || v.Str != "SHARED" || src != step {
			t.Errorf("material %v: MostRecent = %v, %v, %v, %v", m, v, src, ok, err)
		}
	}
	st, _ := db.GetStep(step)
	if len(st.Materials) != 2 {
		t.Errorf("step materials = %v", st.Materials)
	}
}
