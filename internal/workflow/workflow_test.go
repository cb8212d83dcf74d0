package workflow

import (
	"fmt"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage/memstore"
)

// testDB builds a labbase DB with a widget-processing schema.
func testDB(t *testing.T) *labbase.DB {
	t.Helper()
	db, err := labbase.Open(memstore.Open("wf-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"widget", "part"} {
		if _, err := db.DefineMaterialClass(c, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []string{"new", "cut", "polish", "done", "scrap", "p_new", "p_done"} {
		if _, err := db.DefineState(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// txnTracker wraps each mutating call in its own transaction so the engine
// can run without managing transactions in tests.
type txnTracker struct{ db *labbase.DB }

func (tt txnTracker) CreateMaterial(class, name, state string, vt int64) (ID, error) {
	if err := tt.db.Begin(); err != nil {
		return 0, err
	}
	id, err := tt.db.CreateMaterial(class, name, state, vt)
	if err != nil {
		return 0, err
	}
	return id, tt.db.Commit()
}

func (tt txnTracker) CreateMaterialSet(members []ID) (ID, error) {
	if err := tt.db.Begin(); err != nil {
		return 0, err
	}
	id, err := tt.db.CreateMaterialSet(members)
	if err != nil {
		return 0, err
	}
	return id, tt.db.Commit()
}

func (tt txnTracker) RecordStep(spec labbase.StepSpec) (ID, error) {
	if err := tt.db.Begin(); err != nil {
		return 0, err
	}
	id, err := tt.db.RecordStep(spec)
	if err != nil {
		return 0, err
	}
	return id, tt.db.Commit()
}

func (tt txnTracker) SetState(m ID, state string) error {
	if err := tt.db.Begin(); err != nil {
		return err
	}
	if err := tt.db.SetState(m, state); err != nil {
		return err
	}
	return tt.db.Commit()
}

func (tt txnTracker) MaterialsInState(state string) ([]ID, error) {
	return tt.db.MaterialsInState(state)
}

func simpleGraph() *Graph {
	return &Graph{
		Name:      "widgets",
		RootClass: "widget",
		RootState: "new",
		Transitions: []*Transition{
			{Step: "cut_widget", From: "new", To: "cut"},
			{Step: "polish_widget", From: "cut", To: "polish", FailTo: "cut", FailProb: 0.3},
			{Step: "inspect_widget", From: "polish", To: "done"},
		},
	}
}

func TestRunToCompletion(t *testing.T) {
	db := testDB(t)
	eng, err := New(simpleGraph(), txnTracker{db}, 42)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := eng.InjectRoots(20, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 20 {
		t.Fatalf("roots = %d", len(roots))
	}
	ticks, err := eng.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if ticks >= 1000 {
		t.Fatal("did not quiesce")
	}
	done, err := db.MaterialsInState("done")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 20 {
		t.Fatalf("done = %d, want 20", len(done))
	}
	// Every widget saw at least the three step classes; retries add more.
	if eng.Stats.Steps < 60 {
		t.Errorf("steps = %d, want >= 60", eng.Stats.Steps)
	}
	if eng.Stats.StepsByClass["cut_widget"] != 20 {
		t.Errorf("cut steps = %d", eng.Stats.StepsByClass["cut_widget"])
	}
	// With FailProb 0.3 and seed 42, some polish steps failed and retried.
	if eng.Stats.Failures == 0 {
		t.Error("expected some failures at 30% failure probability")
	}
	if eng.Stats.StepsByClass["polish_widget"] <= 20 {
		t.Errorf("polish steps = %d, want > 20 (retries)", eng.Stats.StepsByClass["polish_widget"])
	}
	// Each done widget has a history ending (by valid time) in inspect.
	for _, w := range done {
		hist, err := db.History(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) < 3 {
			t.Fatalf("widget %v history len = %d", w, len(hist))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		db := testDB(t)
		eng, err := New(simpleGraph(), txnTracker{db}, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InjectRoots(15, "w"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return eng.Stats.Steps, eng.Stats.Failures, eng.Clock()
	}
	s1, f1, c1 := run()
	s2, f2, c2 := run()
	if s1 != s2 || f1 != f2 || c1 != c2 {
		t.Errorf("runs differ: (%d,%d,%d) vs (%d,%d,%d)", s1, f1, c1, s2, f2, c2)
	}
}

func TestBatchTransition(t *testing.T) {
	db := testDB(t)
	g := &Graph{
		Name:      "batch",
		RootClass: "widget",
		RootState: "new",
		Transitions: []*Transition{
			{Step: "batch_bake", From: "new", To: "done", Batch: 8},
		},
	}
	eng, err := New(g, txnTracker{db}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectRoots(20, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// 20 widgets in batches of 8: 3 step instances (8+8+4).
	if eng.Stats.StepsByClass["batch_bake"] != 3 {
		t.Errorf("batch steps = %d, want 3", eng.Stats.StepsByClass["batch_bake"])
	}
	if eng.Stats.Batches != 3 {
		t.Errorf("batches = %d, want 3", eng.Stats.Batches)
	}
	if n, _ := db.CountInState("done"); n != 20 {
		t.Errorf("done = %d", n)
	}
	// Each step has a set; each member's history has the step.
	var sets int
	err = db.ScanSteps("batch_bake", func(s *labbase.Step) error {
		if !s.Set.IsNil() {
			sets++
			members, err := db.SetMembers(s.Set)
			if err != nil {
				return err
			}
			for _, m := range members {
				hist, err := db.History(m)
				if err != nil {
					return err
				}
				if len(hist) != 1 || hist[0].Step != s.OID {
					return fmt.Errorf("member %v history wrong", m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sets != 3 {
		t.Errorf("steps with sets = %d", sets)
	}
}

func TestSpawnsAndGuard(t *testing.T) {
	db := testDB(t)
	// Widgets spawn 3 parts each; widgets wait in "cut" until their parts
	// are done (tracked by a simple countdown map, the same pattern the
	// benchmark's assembly guard uses).
	pending := map[ID]int{}
	parentOf := map[ID]ID{}
	var spawnSeq int
	g := &Graph{
		Name:      "spawning",
		RootClass: "widget",
		RootState: "new",
		Transitions: []*Transition{
			{
				Step: "split_widget", From: "new", To: "cut",
				Action: func(ctx *Ctx, mats []ID, failed bool) ([]labbase.AttrValue, []Spawn, error) {
					var sp []Spawn
					for i := 0; i < 3; i++ {
						spawnSeq++
						sp = append(sp, Spawn{Class: "part", Name: fmt.Sprintf("p%d", spawnSeq), State: "p_new"})
					}
					pending[mats[0]] = 3
					return []labbase.AttrValue{{Name: "num_parts", Value: labbase.Int64(3)}}, sp, nil
				},
			},
			{
				Step: "finish_part", From: "p_new", To: "p_done",
				Action: func(ctx *Ctx, mats []ID, failed bool) ([]labbase.AttrValue, []Spawn, error) {
					if parent, ok := parentOf[mats[0]]; ok {
						pending[parent]--
					}
					return nil, nil, nil
				},
			},
			{
				Step: "assemble_widget", From: "cut", To: "done",
				Guard: func(ctx *Ctx, m ID) bool { return pending[m] == 0 },
			},
		},
	}
	eng, err := New(g, txnTracker{db}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Wire parentOf via the AfterStep hook on split steps.
	eng.AfterStep = func(step ID, class string, mats []ID) error {
		if class == "split_widget" {
			for _, m := range mats[1:] {
				parentOf[m] = mats[0]
			}
		}
		return nil
	}
	if _, err := eng.InjectRoots(5, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Stats.Spawned != 15 {
		t.Errorf("spawned = %d, want 15", eng.Stats.Spawned)
	}
	if n, _ := db.CountInState("done"); n != 5 {
		t.Errorf("widgets done = %d, want 5", n)
	}
	if n, _ := db.CountInState("p_done"); n != 15 {
		t.Errorf("parts done = %d, want 15", n)
	}
	if n, _ := db.CountMaterials("part"); n != 15 {
		t.Errorf("parts = %d", n)
	}
	// Spawned parts begin their history with the spawning step.
	parts, _ := db.MaterialsInState("p_done")
	for _, p := range parts {
		hist, err := db.History(p)
		if err != nil || len(hist) != 2 {
			t.Fatalf("part %v history = %v, %v (want split + finish)", p, hist, err)
		}
	}
}

func TestOutOfOrderValidTimes(t *testing.T) {
	db := testDB(t)
	eng, err := New(simpleGraph(), txnTracker{db}, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetOutOfOrder(0.5, 10)
	if _, err := eng.InjectRoots(30, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// At least one material must have a history whose valid times are not
	// monotonically increasing in insertion order.
	done, _ := db.MaterialsInState("done")
	nonMonotone := false
	for _, m := range done {
		hist, err := db.History(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].ValidTime < hist[i-1].ValidTime {
				nonMonotone = true
			}
		}
	}
	if !nonMonotone {
		t.Error("expected some out-of-order valid times at 50% skew probability")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Graph{
		{Name: "no-root"},
		{RootClass: "widget", RootState: "new", Transitions: []*Transition{{Step: "s"}}},
		{RootClass: "widget", RootState: "new", Transitions: []*Transition{
			{Step: "s", From: "a", To: "b", FailProb: 0.5},
		}},
		{RootClass: "widget", RootState: "new", Transitions: []*Transition{
			{Step: "s", From: "a", To: "b", FailTo: "a", FailProb: 1.5},
		}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("graph %d should fail validation", i)
		}
	}
	if err := simpleGraph().Validate(); err != nil {
		t.Errorf("good graph failed: %v", err)
	}
}

// failingTracker returns an error from RecordStep to test propagation.
type failingTracker struct {
	txnTracker
	failStep bool
}

func (f failingTracker) RecordStep(spec labbase.StepSpec) (ID, error) {
	if f.failStep {
		return 0, fmt.Errorf("injected tracker failure")
	}
	return f.txnTracker.RecordStep(spec)
}

func TestTrackerErrorPropagation(t *testing.T) {
	db := testDB(t)
	eng, err := New(simpleGraph(), failingTracker{txnTracker{db}, true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectRoots(3, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(10); err == nil {
		t.Fatal("tracker failure should abort the run")
	}
	// Action errors propagate too.
	db2 := testDB(t)
	g := &Graph{
		RootClass: "widget", RootState: "new",
		Transitions: []*Transition{{
			Step: "boom", From: "new", To: "done",
			Action: func(ctx *Ctx, mats []ID, failed bool) ([]labbase.AttrValue, []Spawn, error) {
				return nil, nil, fmt.Errorf("action exploded")
			},
		}},
	}
	eng2, err := New(g, txnTracker{db2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.InjectRoots(1, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Run(10); err == nil {
		t.Fatal("action failure should abort the run")
	}
}

func TestMaxPerTick(t *testing.T) {
	db := testDB(t)
	g := &Graph{
		Name:      "throttled",
		RootClass: "widget",
		RootState: "new",
		Transitions: []*Transition{
			{Step: "cut_widget", From: "new", To: "done", MaxPerTick: 4},
		},
	}
	eng, err := New(g, txnTracker{db}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectRoots(10, "w"); err != nil {
		t.Fatal(err)
	}
	worked, err := eng.Tick()
	if err != nil || !worked {
		t.Fatal(err)
	}
	if n, _ := db.CountInState("done"); n != 4 {
		t.Errorf("after one tick done = %d, want 4", n)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountInState("done"); n != 10 {
		t.Errorf("final done = %d", n)
	}
}

// TestRunFailsWithoutQuiescence: a graph whose materials cycle forever must
// make a bounded Run fail, not return as if it had finished.
func TestRunFailsWithoutQuiescence(t *testing.T) {
	db := testDB(t)
	g := &Graph{
		Name:      "cycle",
		RootClass: "widget",
		RootState: "new",
		Transitions: []*Transition{
			{Step: "cut_widget", From: "new", To: "cut"},
			{Step: "uncut_widget", From: "cut", To: "new"},
		},
	}
	eng, err := New(g, txnTracker{db}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectRoots(2, "w"); err != nil {
		t.Fatal(err)
	}
	ticks, err := eng.Run(20)
	if err == nil {
		t.Fatalf("Run(20) over a two-state cycle returned %d ticks and no error", ticks)
	}
	if ticks != 20 || eng.Stats.Steps != 2*2*20 {
		t.Errorf("Run(20) stopped after %d ticks and %d steps, want 20 and 80", ticks, eng.Stats.Steps)
	}
}
