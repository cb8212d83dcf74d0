package core

import (
	"fmt"
	"math/rand"
	"strings"

	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/metrics"
	"labflow/internal/storage"
	"labflow/internal/workflow"
)

// OpsRow is one operation class's profile: the storage manager's counter
// deltas over N operations of the class.
type OpsRow struct {
	Op    string
	N     int
	Stats storage.Stats
}

// OpsResult is the Section-8 operation-class profile (experiment E3).
type OpsResult struct {
	Store string
	Rows  []OpsRow
}

// BuiltDB is a database pre-populated with a 1X LabFlow-1 run, plus the
// handles experiments need to keep working with it.
type BuiltDB struct {
	DB     *labbase.DB
	SM     storage.Manager
	Lab    *Lab
	Clock  int64         // the lab time the workload ended at
	Clones []workflow.ID // clones that completed the workflow

	oids map[uint64]storage.OID // the applier's trace id -> OID map
}

// Build populates a fresh database by running the workload to scale
// (scaleX halves of BaseClones, so scaleX=2 is a 1.0X database).
func Build(kind StoreKind, dir string, p Params, scaleX int) (*BuiltDB, error) {
	events, lab, err := workload(p, scaleX)
	if err != nil {
		return nil, err
	}
	return build(kind, dir, p, events, lab)
}

// build applies a generated stream, without its query mix, to a fresh store.
func build(kind StoreKind, dir string, p Params, events []event, lab *Lab) (*BuiltDB, error) {
	db, sm, err := OpenDB(kind, dir, p)
	if err != nil {
		return nil, err
	}
	a, err := applySlice(db, events, false)
	var done []workflow.ID
	if err == nil {
		done, err = db.MaterialsInState(StCloneDone)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return &BuiltDB{DB: db, SM: sm, Lab: lab, Clock: a.Clock, Clones: done, oids: a.oids}, nil
}

// Close releases the built database.
func (b *BuiltDB) Close() error { return b.DB.Close() }

// RunOps profiles the Section-8 operation classes on a 1X database.
func RunOps(kind StoreKind, dir string, p Params) (*OpsResult, error) {
	built, err := Build(kind, dir, p, 2)
	if err != nil {
		return nil, err
	}
	defer built.Close()
	db := built.DB
	rng := rand.New(rand.NewSource(p.Seed ^ 0x0B5))
	clones := built.Clones
	if len(clones) == 0 {
		return nil, fmt.Errorf("core: built database has no finished clones")
	}

	res := &OpsResult{Store: built.SM.Name()}
	add := func(name string, n int, fn func(i int) error) error {
		mark := built.SM.Stats()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return fmt.Errorf("core: %s[%d]: %w", name, i, err)
			}
		}
		res.Rows = append(res.Rows, OpsRow{Op: name, N: n, Stats: built.SM.Stats().Sub(mark)})
		return nil
	}

	// 8.3 workflow tracking: record step + state transition, one txn each.
	if err := add("tracking update (record step + set state)", 400, func(i int) error {
		m := clones[rng.Intn(len(clones))]
		if err := db.Begin(); err != nil {
			return err
		}
		if _, err := db.RecordStep(labbase.StepSpec{
			Class: StepIncorporate, ValidTime: built.Clock + int64(i),
			Materials: []workflow.ID{m},
			Attrs: []labbase.AttrValue{
				{Name: "map_position", Value: labbase.Int64(int64(i))},
				{Name: "ok", Value: labbase.Bool(true)},
			},
		}); err != nil {
			return err
		}
		if err := db.SetState(m, StCloneDone); err != nil {
			return err
		}
		return db.Commit()
	}); err != nil {
		return nil, err
	}

	// 8.2 most-recent queries through the index.
	if err := add("most-recent query (index)", 4000, func(i int) error {
		m := clones[rng.Intn(len(clones))]
		_, _, _, err := db.MostRecent(m, queryAttrs[i%len(queryAttrs)])
		return err
	}); err != nil {
		return nil, err
	}

	// Keyed lookup: resolve a material by name and read its current value —
	// the benchmark's analog of TPC's look-up-by-key transaction.
	names := make([]string, len(clones))
	for i, c := range clones {
		m, err := db.GetMaterial(c)
		if err != nil {
			return nil, err
		}
		names[i] = m.Name
	}
	if err := add("keyed lookup (name -> most-recent)", 2000, func(i int) error {
		oid, ok := db.LookupMaterial(names[rng.Intn(len(names))])
		if !ok {
			return fmt.Errorf("name index miss")
		}
		_, _, _, err := db.MostRecent(oid, "coverage")
		return err
	}); err != nil {
		return nil, err
	}

	// The same query answered by scanning the history — what the index saves.
	if err := add("most-recent query (history scan)", 400, func(i int) error {
		m := clones[rng.Intn(len(clones))]
		_, _, _, err := db.MostRecentScan(m, queryAttrs[i%len(queryAttrs)])
		return err
	}); err != nil {
		return nil, err
	}

	// State dispatch: the workflow scheduler's query.
	if err := add("materials-in-state listing", 400, func(i int) error {
		_, err := db.MaterialsInState(AllStates[i%len(AllStates)])
		return err
	}); err != nil {
		return nil, err
	}

	// Counting.
	if err := add("counting (class + state counts)", 1000, func(i int) error {
		if _, err := db.CountMaterials("clone"); err != nil {
			return err
		}
		if _, err := db.CountSteps(StepDetermineSeq); err != nil {
			return err
		}
		_, err := db.CountInState(StCloneDone)
		return err
	}); err != nil {
		return nil, err
	}

	// Set/list generation: retrieve stored BLAST hit lists.
	if err := add("hit-list retrieval (set/list generation)", 1000, func(i int) error {
		return checkHits(db, clones[rng.Intn(len(clones))])
	}); err != nil {
		return nil, err
	}

	// History scan: full audit trail of one material.
	if err := add("history scan (one material)", 400, func(i int) error {
		_, err := readTrail(db, clones[rng.Intn(len(clones))])
		return err
	}); err != nil {
		return nil, err
	}

	// Deductive queries through the Section-6 language.
	bridge := lbq.New(db)
	if err := bridge.Engine().Consult(`
		sequenced(M) <- state(M, t_sequenced), most_recent(M, ok, true).
	`); err != nil {
		return nil, err
	}
	if err := add("deductive query (state+most-recent join)", 40, func(i int) error {
		_, err := bridge.Query("setof(M, sequenced(M), L), length(L, N)", 0)
		return err
	}); err != nil {
		return nil, err
	}

	// Archival dump.
	if err := add("full database dump", 2, func(i int) error {
		_, err := db.Dump()
		return err
	}); err != nil {
		return nil, err
	}

	return res, nil
}

// FormatOps renders the operation profile.
func FormatOps(res *OpsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LabFlow-1 operation-class profile (Section 8) — %s, 1.0X database\n\n", res.Store)
	tab := metrics.NewTable("Operation", "N", "reads/op", "writes/op", "faults/op")
	for _, r := range res.Rows {
		perOp := func(v uint64) string { return fmt.Sprintf("%.2f", float64(v)/float64(r.N)) }
		tab.Row(r.Op, fmt.Sprintf("%d", r.N), perOp(r.Stats.Reads), perOp(r.Stats.Writes), perOp(r.Stats.Faults))
	}
	_ = tab.Write(&b)
	return b.String()
}
