package labbase

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// callRecorder is a storage.Manager that forwards to an inner manager and
// writes one line per storage call: the op, the OID, the length and an
// FNV-64a hash of the bytes written (or read, or left by an update). Close
// is recorded but not forwarded, so a second DB can reopen the same
// main-memory store the way it would reopen a persistent one.
type callRecorder struct {
	sm storage.Manager
	b  *strings.Builder
}

func (r *callRecorder) log(op string, oid storage.OID, data []byte, err error) {
	h := fnv.New64a()
	h.Write(data)
	fmt.Fprintf(r.b, "%-8s %#016x %5d %016x", op, uint64(oid), len(data), h.Sum64())
	if err != nil {
		fmt.Fprintf(r.b, " err=%v", err)
	}
	r.b.WriteByte('\n')
}

func (r *callRecorder) Name() string         { return r.sm.Name() }
func (r *callRecorder) Stats() storage.Stats { return r.sm.Stats() }

func (r *callRecorder) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	oid, err := r.sm.Allocate(seg, data)
	r.log("alloc", oid, data, err)
	return oid, err
}

func (r *callRecorder) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	oid, err := r.sm.AllocateCluster(seg, data)
	r.log("cluster", oid, data, err)
	return oid, err
}

func (r *callRecorder) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	oid, err := r.sm.AllocateNear(near, data)
	r.log(fmt.Sprintf("near:%x", uint64(near)), oid, data, err)
	return oid, err
}

func (r *callRecorder) Read(oid storage.OID) ([]byte, error) {
	data, err := r.sm.Read(oid)
	r.log("read", oid, data, err)
	return data, err
}

func (r *callRecorder) Write(oid storage.OID, data []byte) error {
	err := r.sm.Write(oid, data)
	r.log("write", oid, data, err)
	return err
}

// Update forwards storage.Updater and logs the bytes fn left behind.
func (r *callRecorder) Update(oid storage.OID, fn func([]byte) error) error {
	var after []byte
	err := storage.Update(r.sm, oid, func(b []byte) error {
		err := fn(b)
		after = append(after, b...)
		return err
	})
	r.log("update", oid, after, err)
	return err
}

func (r *callRecorder) Free(oid storage.OID) error {
	err := r.sm.Free(oid)
	r.log("free", oid, nil, err)
	return err
}

func (r *callRecorder) Root() (storage.OID, error) {
	oid, err := r.sm.Root()
	r.log("root", oid, nil, err)
	return oid, err
}

func (r *callRecorder) SetRoot(oid storage.OID) error {
	err := r.sm.SetRoot(oid)
	r.log("setroot", oid, nil, err)
	return err
}

func (r *callRecorder) Begin() error {
	err := r.sm.Begin()
	r.log("begin", 0, nil, err)
	return err
}

func (r *callRecorder) Commit() error {
	err := r.sm.Commit()
	r.log("commit", 0, nil, err)
	return err
}

func (r *callRecorder) Close() error {
	r.log("close", 0, nil, nil)
	return nil
}

// TestStorageCallsGolden pins every storage call LabBase makes, with the
// bytes it writes, over a script that fills more than one extent chunk
// (300 materials of one class) and more than two history chunks (130 steps
// on one material), records a multi-material step and a step over a
// material set, moves a material's state, reads history lists and extents,
// and closes and reopens the database before reading and appending again.
// A change to the access structures' code that is meant to keep their
// format and placement must leave testdata/storage_calls.golden
// byte-identical. Regenerate deliberately with UPDATE_GOLDEN=1.
func TestStorageCallsGolden(t *testing.T) {
	var b strings.Builder
	rec := &callRecorder{sm: memstore.Open("calls-mm"), b: &b}
	note := func(format string, args ...any) {
		fmt.Fprintf(&b, "# "+format+"\n", args...)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	note("open")
	db, err := Open(rec, DefaultOptions())
	must(err)
	note("schema")
	must(db.Begin())
	_, err = db.DefineMaterialClass("clone", "")
	must(err)
	_, err = db.DefineMaterialClass("tclone", "clone")
	must(err)
	for _, s := range []string{"prep", "done"} {
		_, err = db.DefineState(s)
		must(err)
	}
	_, _, err = db.DefineStepClass("weigh", []AttrDef{{Name: "mass", Kind: KindFloat}})
	must(err)
	must(db.Commit())

	note("materials")
	mats := make([]storage.OID, 300)
	for i := range mats {
		if i%100 == 0 {
			must(db.Begin())
		}
		state := ""
		if i%3 == 0 {
			state = "prep"
		}
		mats[i], err = db.CreateMaterial("clone", fmt.Sprintf("c%03d", i), state, int64(i))
		must(err)
		if i%100 == 99 {
			must(db.Commit())
		}
	}
	must(db.Begin())
	tc, err := db.CreateMaterial("tclone", "t0", "", 1)
	must(err)
	must(db.Commit())

	note("steps on one material")
	must(db.Begin())
	for i := 0; i < 130; i++ {
		// Every seventh step arrives out of valid-time order.
		vt := int64(1000 + i)
		if i%7 == 6 {
			vt -= 50
		}
		_, err = db.RecordStep(StepSpec{
			Class: "weigh", ValidTime: vt, Materials: []storage.OID{mats[0]},
			Attrs: []AttrValue{{Name: "mass", Value: Float64(float64(i))}},
		})
		must(err)
	}
	must(db.Commit())

	note("multi-material step, set, state")
	must(db.Begin())
	_, err = db.RecordStep(StepSpec{
		Class: "pick", ValidTime: 2000, Materials: []storage.OID{mats[1], mats[2], tc},
		Attrs: []AttrValue{{Name: "well", Value: String("A1")}},
	})
	must(err)
	set, err := db.CreateMaterialSet(mats[3:9])
	must(err)
	_, err = db.RecordStep(StepSpec{
		Class: "gel", ValidTime: 2001, Materials: []storage.OID{mats[9]}, Set: set,
		Attrs: []AttrValue{{Name: "lane", Value: Int64(4)}},
	})
	must(err)
	must(db.SetState(mats[0], "done"))
	must(db.SetState(mats[1], "prep"))
	must(db.Commit())

	reads := func(db *DB) {
		t.Helper()
		for _, m := range []storage.OID{mats[0], mats[4], tc} {
			h, err := db.History(m)
			must(err)
			note("history %v: %d entries", m, len(h))
		}
		n := 0
		must(db.ScanClassExtent("clone", func(storage.OID) error { n++; return nil }))
		note("extent clone: %d", n)
		n = 0
		must(db.ScanSteps("weigh", func(*Step) error { n++; return nil }))
		note("steps weigh: %d", n)
		n = 0
		must(db.ScanMaterials("clone", func(*Material) error { n++; return nil }))
		note("materials clone: %d", n)
	}
	note("reads")
	reads(db)

	note("close and reopen")
	must(db.Close())
	db, err = Open(rec, DefaultOptions())
	must(err)
	note("reads after reopen")
	reads(db)
	note("append after reopen")
	must(db.Begin())
	_, err = db.RecordStep(StepSpec{
		Class: "weigh", ValidTime: 3000, Materials: []storage.OID{mats[0], mats[299]},
		Attrs: []AttrValue{{Name: "mass", Value: Float64(9)}},
	})
	must(err)
	_, err = db.CreateMaterial("clone", "c300", "done", 3000)
	must(err)
	must(db.Commit())
	reads(db)

	got := b.String()
	path := filepath.Join("testdata", "storage_calls.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("storage calls drifted from golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("storage calls drifted from golden: %d lines, want %d", len(gl), len(wl))
	}
}
