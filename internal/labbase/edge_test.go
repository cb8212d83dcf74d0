package labbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/texas"
	"path/filepath"
)

// TestHistoryChunkBoundaries exercises exactly-full, one-over and multi-chunk
// histories (chunk capacity is 64).
func TestHistoryChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 129, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := openMem(t)
			defineBasics(t, db)
			begin(t, db)
			m, err := db.CreateMaterial("clone", "c", "", 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := db.RecordStep(StepSpec{
					Class: "determine_sequence", ValidTime: int64(i),
					Materials: []storage.OID{m},
					Attrs:     []AttrValue{{Name: "sequence", Value: String(fmt.Sprint(i))}},
				}); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, db)
			hist, err := db.History(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != n {
				t.Fatalf("history len = %d, want %d", len(hist), n)
			}
			for i, h := range hist {
				if h.ValidTime != int64(i) {
					t.Fatalf("entry %d valid time = %d", i, h.ValidTime)
				}
			}
			v, _, ok, err := db.MostRecent(m, "sequence")
			if err != nil || !ok || v.Str != fmt.Sprint(n-1) {
				t.Fatalf("MostRecent = %v, %v, %v", v, ok, err)
			}
			if mm, _ := db.GetMaterial(m); mm.HistoryLen != n {
				t.Fatalf("HistoryLen = %d", mm.HistoryLen)
			}
		})
	}
}

// TestExtentBoundaries crosses the 256-entry extent chunk boundary.
func TestExtentBoundaries(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	const n = 600
	for i := 0; i < n; i++ {
		if _, err := db.CreateMaterial("clone", fmt.Sprintf("c%d", i), "", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)
	if got, _ := db.CountMaterials("clone"); got != n {
		t.Fatalf("count = %d", got)
	}
	var seen int
	var lastName string
	err := db.ScanMaterials("clone", func(m *Material) error {
		seen++
		lastName = m.Name
		return nil
	})
	if err != nil || seen != n {
		t.Fatalf("scan visited %d, %v", seen, err)
	}
	// Insertion order is preserved across chunks.
	if lastName != fmt.Sprintf("c%d", n-1) {
		t.Errorf("last scanned = %q", lastName)
	}
}

// TestWalkChecksCountAgainstChain walks a three-chunk extent (256+256+88
// entries) with every count a snapshot could hold and with counts and
// links no writer produces: a corrupt count or a cyclic chain must end the
// walk with rec.ErrCorrupt instead of a wrong answer or an endless loop.
func TestWalkChecksCountAgainstChain(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	for i := 0; i < 600; i++ {
		if _, err := db.CreateMaterial("clone", "", "", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)
	head := db.cat.byMCName["clone"].extentHead
	walk := func(head storage.OID, total uint64) (int, error) {
		n := 0
		err := db.walk(&extentChain, head, total, func(b []byte) error { n += len(b) / extentEntrySize; return nil })
		return n, err
	}
	for _, total := range []uint64{600, 599, 512} {
		if n, err := walk(head, total); err != nil || n != int(total) {
			t.Errorf("walk(total %d) = %d, %v", total, n, err)
		}
	}
	for _, total := range []uint64{601, 511, 0} {
		if _, err := walk(head, total); !errors.Is(err, rec.ErrCorrupt) {
			t.Errorf("walk(total %d): err = %v, want rec.ErrCorrupt", total, err)
		}
	}
	if _, err := walk(storage.NilOID, 1); !errors.Is(err, rec.ErrCorrupt) {
		t.Errorf("walk of an empty chain with count 1: err = %v", err)
	}

	// Link the oldest chunk back to the head.
	oldest := head
	for {
		data, err := db.sm.Read(oldest)
		if err != nil {
			t.Fatal(err)
		}
		next := extentChain.next(data)
		if next.IsNil() {
			binary.LittleEndian.PutUint64(data[5:13], uint64(head))
			begin(t, db)
			if err := db.sm.Write(oldest, data); err != nil {
				t.Fatal(err)
			}
			commit(t, db)
			break
		}
		oldest = next
	}
	if _, err := walk(head, 600); !errors.Is(err, rec.ErrCorrupt) {
		t.Errorf("walk of a cyclic chain: err = %v, want rec.ErrCorrupt", err)
	}
}

// TestMostRecentIndexGrowth pushes a material past the initial 8-entry
// most-recent index capacity (the record must relocate and keep working).
func TestMostRecentIndexGrowth(t *testing.T) {
	db := openMem(t)
	defineBasics(t, db)
	begin(t, db)
	m, err := db.CreateMaterial("clone", "c", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	const nAttrs = 40
	for i := 0; i < nAttrs; i++ {
		if _, err := db.RecordStep(StepSpec{
			Class: "wide_step", ValidTime: int64(i + 1),
			Materials: []storage.OID{m},
			Attrs:     []AttrValue{{Name: fmt.Sprintf("attr_%02d", i), Value: Int64(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db)
	for i := 0; i < nAttrs; i++ {
		v, _, ok, err := db.MostRecent(m, fmt.Sprintf("attr_%02d", i))
		if err != nil || !ok || v.Int != int64(i) {
			t.Fatalf("attr_%02d = %v, %v, %v", i, v, ok, err)
		}
	}
	// Each single-attribute set spawned its own step-class version.
	vers, err := db.StepClassVersions("wide_step")
	if err != nil || len(vers) != nAttrs {
		t.Fatalf("versions = %d, %v", len(vers), err)
	}
}

// TestOversizedValues stores attribute values larger than a storage page
// (the overflow-record path end to end through LabBase).
func TestOversizedValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.db")
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
	m, err := db.CreateMaterial("clone", "c", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("ACGT", 10000) // 40 KB consensus
	if _, err := db.RecordStep(StepSpec{
		Class: "assemble", ValidTime: 1,
		Materials: []storage.OID{m},
		Attrs:     []AttrValue{{Name: "consensus_big", Value: String(big)}},
	}); err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	defer db2.Close()
	v, _, ok, err := db2.MostRecent(m, "consensus_big")
	if err != nil || !ok || v.Str != big {
		t.Fatalf("oversized value: ok=%v len=%d err=%v", ok, len(v.Str), err)
	}
}

// TestManyClassesCatalog grows the catalog well past one page worth of
// schema and checks persistence.
func TestManyClassesCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.db")
	sm, err := texas.Open(texas.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(sm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	begin(t, db)
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := db.DefineMaterialClass(fmt.Sprintf("material_class_with_a_long_name_%03d", i), ""); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DefineState(fmt.Sprintf("state_with_a_long_name_%03d", i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.DefineStepClass(fmt.Sprintf("step_class_with_a_long_name_%03d", i), []AttrDef{
			{Name: fmt.Sprintf("attribute_with_a_long_name_%03d", i), Kind: KindString},
		}); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("reopen with big catalog: %v", err)
	}
	defer db2.Close()
	if got := len(db2.MaterialClasses()); got != n {
		t.Errorf("classes after reopen = %d", got)
	}
	if got := len(db2.States()); got != n {
		t.Errorf("states after reopen = %d", got)
	}
	if got := len(db2.StepClasses()); got != n {
		t.Errorf("step classes after reopen = %d", got)
	}
}

// TestQuickValueRoundTrip property-tests the value codec over random nested
// values.
func TestQuickValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gen func(depth int) Value
	gen = func(depth int) Value {
		switch rng.Intn(7) {
		case 0:
			return Nil()
		case 1:
			return Int64(rng.Int63() - rng.Int63())
		case 2:
			return Float64(rng.NormFloat64())
		case 3:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			return String(string(b))
		case 4:
			return Bool(rng.Intn(2) == 0)
		case 5:
			return Ref(storage.MakeOID(storage.SegmentID(rng.Intn(4)), uint64(rng.Intn(1000)+1)))
		default:
			if depth <= 0 {
				return Int64(0)
			}
			n := rng.Intn(4)
			elems := make([]Value, n)
			for i := range elems {
				elems[i] = gen(depth - 1)
			}
			return ListOf(elems...)
		}
	}
	f := func() bool {
		v := gen(3)
		e := rec.NewEncoder(64)
		EncodeValue(e, v)
		d := rec.NewDecoder(e.Bytes())
		got := DecodeValue(d)
		return d.Finish() == nil && got.Equal(v)
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatalf("value round trip failed at iteration %d", i)
		}
	}
}

// TestValueStringForms pins the display forms used in reports and traces.
func TestValueStringForms(t *testing.T) {
	cases := map[string]Value{
		"nil":            Nil(),
		"42":             Int64(42),
		"2.5":            Float64(2.5),
		`"ACGT"`:         String("ACGT"),
		"true":           Bool(true),
		"false":          Bool(false),
		"[1, \"x\"]":     ListOf(Int64(1), String("x")),
		"oid(history:3)": Ref(storage.MakeOID(storage.SegHistory, 3)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v-kind) = %q, want %q", v.Kind, got, want)
		}
	}
}
