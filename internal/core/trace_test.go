package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage/memstore"
)

func TestTraceGenerateDeterministic(t *testing.T) {
	p := testParams()
	var a, b bytes.Buffer
	na, err := GenerateTrace(&a, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := GenerateTrace(&b, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same seed produced different traces (%d vs %d events)", na, nb)
	}
	if na == 0 {
		t.Fatal("empty trace")
	}
	p2 := p
	p2.Seed = 77
	var c bytes.Buffer
	if _, err := GenerateTrace(&c, p2, 2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different seeds produced identical traces")
	}
}

// TestTraceReplayEquivalence applies the typed stream to one database and
// its JSON encoding, decoded line by line, to another: the JSON edge must
// lose nothing, so counts and dumps agree.
func TestTraceReplayEquivalence(t *testing.T) {
	p := testParams()
	open := func(name string) *labbase.DB {
		db, err := labbase.Open(memstore.Open(name), labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	// The typed stream.
	events, _, err := workload(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct := open("typed-mm")
	typed, err := applySlice(direct, events, false)
	if err != nil {
		t.Fatal(err)
	}

	// Its JSON edge: GenerateTrace, then UnmarshalJSON line by line.
	var buf bytes.Buffer
	if _, err := GenerateTrace(&buf, p, 2); err != nil {
		t.Fatal(err)
	}
	db := open("replay-mm")
	stats, err := ReplayTrace(&buf, db, 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.Steps == 0 || stats != typed.ReplayStats {
		t.Fatalf("replay stats = %+v, typed stream %+v", stats, typed.ReplayStats)
	}

	// Logical state must agree.
	type counter func(*labbase.DB) (uint64, error)
	checks := map[string]counter{
		"materials": func(d *labbase.DB) (uint64, error) { return d.CountMaterials("material") },
		"clones":    func(d *labbase.DB) (uint64, error) { return d.CountMaterials("clone") },
		"tclones":   func(d *labbase.DB) (uint64, error) { return d.CountMaterials("tclone") },
		"seq steps": func(d *labbase.DB) (uint64, error) { return d.CountSteps(StepDetermineSeq) },
		"gel steps": func(d *labbase.DB) (uint64, error) { return d.CountSteps(StepRunGel) },
		"done":      func(d *labbase.DB) (uint64, error) { return d.CountInState(StCloneDone) },
		"sequenced": func(d *labbase.DB) (uint64, error) { return d.CountInState(StTcloneDone) },
	}
	for name, fn := range checks {
		want, err := fn(direct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fn(db)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: replay %d != typed %d", name, got, want)
		}
	}
	dd, err := direct.Dump()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if dd != rd {
		t.Errorf("dump mismatch: typed %+v, replay %+v", dd, rd)
	}
}

// TestApplyChecksScans drops one state change from a stream: the store
// then disagrees with the stream about that material's state, and apply
// must refuse at the first scan of either state, not later.
func TestApplyChecksScans(t *testing.T) {
	events, _, err := workload(testParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	drop := slices.IndexFunc(events, func(ev event) bool { return ev.kind == evState })
	moved := events[drop]
	// The material's state before the dropped change.
	var from string
	for _, ev := range events[:drop] {
		if (ev.kind == evMaterial || ev.kind == evState) && ev.id == moved.id {
			from = ev.state
		}
	}
	events = slices.Delete(events, drop, drop+1)
	want := drop + slices.IndexFunc(events[drop:], func(ev event) bool {
		return ev.kind == evScan && (ev.state == from || ev.state == moved.state)
	})

	db, err := labbase.Open(memstore.Open("dropped-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = applySlice(db, events, true)
	if err == nil {
		t.Fatalf("a stream without event %d (%s of %d to %s) applied cleanly", drop, moved.kind, moved.id, moved.state)
	}
	if prefix := fmt.Sprintf("core: event %d (scan ", want); !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("apply failed with %q, want it to fail at %q", err, prefix)
	}
}

func TestTraceValueRoundTrip(t *testing.T) {
	vals := []labbase.Value{
		labbase.Nil(),
		labbase.Int64(-7),
		labbase.Float64(2.25),
		labbase.String("ACGT"),
		labbase.Bool(true),
		labbase.ListOf(labbase.String("LF1"), labbase.Float64(0.5),
			labbase.ListOf(labbase.Int64(1), labbase.Bool(false))),
	}
	for _, v := range vals {
		got, err := fromTraceValue(toTraceValue(v))
		if err != nil {
			t.Fatalf("round trip %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := fromTraceValue(TraceValue{Kind: "martian"}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	db, err := labbase.Open(memstore.Open("garbage-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cases := []string{
		`{"kind":"step","id":1,"class":"x","materials":[999]}`, // unknown material
		`{"kind":"state","id":42,"state":"s"}`,                 // unknown id
		`{"kind":"weird"}`,                                     // unknown kind
		`not json at all`,
	}
	for _, src := range cases {
		if _, err := ReplayTrace(strings.NewReader(src), db, 10); err == nil {
			t.Errorf("trace %q should fail to replay", src)
		}
	}
}
