package core

import (
	"fmt"
	"math/rand"

	"labflow/internal/labbase"
	"labflow/internal/workflow"
)

// IntervalRow is one row group of the Section-10 table: the resources spent
// while the database grew by another 0.5X.
type IntervalRow struct {
	Label string // "0.5X", "1.0X", ...

	// MajFlt is the simulated page-fault count from the storage manager —
	// the portable analog of the paper's majflt column.
	MajFlt uint64
	// PageWrites is the page write-back delta.
	PageWrites uint64
	// SizeBytes is the database footprint at the end of the interval
	// (0 for the main-memory versions, shown as "—").
	SizeBytes uint64

	Steps   uint64 // tracking updates performed this interval
	Queries uint64 // read queries performed this interval
}

// RunResult is one full benchmark run on one server version.
type RunResult struct {
	Store     string
	Rows      []IntervalRow
	Total     IntervalRow // aggregate across intervals
	Clones    uint64
	Materials uint64
	StepCount uint64
	Dump      labbase.DumpStats
}

// Run executes the LabFlow-1 workload on one server version. The event
// stream is a pure function of p.Seed, so every version sees identical work.
func Run(kind StoreKind, dir string, p Params) (*RunResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sm, err := MakeStore(kind, dir, p)
	if err != nil {
		return nil, err
	}
	db, err := labbase.Open(sm, labbase.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	res, err := runOn(db, p)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", kind, err)
	}
	res.Store, _ = db.StoreStats()
	return res, nil
}

// RunStore executes the LabFlow-1 workload on an already-open store. Its
// callers are tests: they drive table10 through a 1-shard cluster
// (shard.Open) and compare the result with Run's over a plain DB. The
// caller keeps ownership of db (RunStore does not Close it). Stores that
// expose more than one shard are rejected: table10's gel batches build
// material sets over arbitrary materials, which violates the
// single-partition step contract.
func RunStore(db labbase.Store, p Params) (*RunResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if s, ok := db.(interface{ Shards() int }); ok && s.Shards() > 1 {
		return nil, fmt.Errorf("core: table10 supports 1 shard only: gel batches build material sets over arbitrary materials, so N>1 would violate the single-partition step contract")
	}
	res, err := runOn(db, p)
	if err != nil {
		return nil, err
	}
	res.Store, _ = db.StoreStats()
	return res, nil
}

// driver owns one benchmark execution over an open database.
type driver struct {
	db  labbase.Store
	p   Params
	lab *Lab
	eng *workflow.Engine
	rng *rand.Rand // query-mix randomness, separate stream

	recent  []workflow.ID // ring of recently touched materials
	queries uint64
	ticks   int
}

// queryAttrs are the attributes the most-recent probes draw from.
var queryAttrs = []string{"sequence", "quality", "ok", "position", "coverage", "num_tclones", "hits"}

func runOn(db labbase.Store, p Params) (*RunResult, error) {
	if err := db.Begin(); err != nil {
		return nil, err
	}
	if err := DefineSchema(db); err != nil {
		return nil, err
	}
	if err := db.Commit(); err != nil {
		return nil, err
	}

	lab, err := NewLab(p)
	if err != nil {
		return nil, err
	}
	eng, err := workflow.New(lab.Graph(), db, p.Seed)
	if err != nil {
		return nil, err
	}
	eng.SetOutOfOrder(p.OutOfOrderProb, p.OutOfOrderSkew)

	d := &driver{
		db: db, p: p, lab: lab, eng: eng,
		rng: rand.New(rand.NewSource(p.Seed ^ 0x9E3779B9)),
	}
	eng.AfterStep = d.afterStep

	res := &RunResult{}
	perInterval := (p.BaseClones + 1) / 2
	_, prevStats := db.StoreStats()
	var prevSteps, prevQueries uint64

	for i := 1; i <= p.Intervals; i++ {
		if err := d.runInterval(perInterval); err != nil {
			return nil, err
		}
		_, stats := db.StoreStats()
		ds := stats.Sub(prevStats)
		row := IntervalRow{
			Label:      fmt.Sprintf("%.1fX", float64(i)*0.5),
			MajFlt:     ds.Faults,
			PageWrites: ds.PageWrites,
			SizeBytes:  ds.SizeBytes,
			Steps:      d.eng.Stats.Steps - prevSteps,
			Queries:    d.queries - prevQueries,
		}
		res.Rows = append(res.Rows, row)
		prevStats = stats
		prevSteps, prevQueries = d.eng.Stats.Steps, d.queries
	}

	// Aggregate row.
	for _, r := range res.Rows {
		res.Total.MajFlt += r.MajFlt
		res.Total.PageWrites += r.PageWrites
		res.Total.Steps += r.Steps
		res.Total.Queries += r.Queries
	}
	res.Total.Label = "total"
	_, finalStats := db.StoreStats()
	res.Total.SizeBytes = finalStats.SizeBytes

	res.Clones = d.eng.Stats.Roots
	res.StepCount = d.eng.Stats.Steps
	if n, err := db.CountMaterials("material"); err == nil {
		res.Materials = n
	}
	res.Dump, err = db.Dump()
	if err != nil {
		return nil, fmt.Errorf("final dump: %w", err)
	}
	return res, nil
}

// runInterval pushes one 0.5X wave of clones through the entire workflow,
// interleaving the query mix with the tracking updates.
func (d *driver) runInterval(clones int) error {
	if err := d.db.Begin(); err != nil {
		return err
	}
	if _, err := d.eng.InjectRoots(clones, "c"); err != nil {
		return err
	}
	if err := d.db.Commit(); err != nil {
		return err
	}
	for tick := 0; tick < 100000; tick++ {
		d.ticks++
		if err := d.db.Begin(); err != nil {
			return err
		}
		worked, err := d.eng.Tick()
		if err != nil {
			return err
		}
		if err := d.db.Commit(); err != nil {
			return err
		}
		if !worked {
			// End-of-interval queries: the archival scan workload.
			return d.intervalQueries()
		}
		if err := d.tickQueries(); err != nil {
			return err
		}
	}
	return fmt.Errorf("core: interval did not quiesce in 100000 ticks")
}

// afterStep runs inside the tick transaction: bookkeeping only (queries run
// after commit, outside the transaction, like a separate client would).
func (d *driver) afterStep(step workflow.ID, class string, mats []workflow.ID) error {
	d.lab.NoteSpawns(class, mats)
	for _, m := range mats {
		if len(d.recent) < 4096 {
			d.recent = append(d.recent, m)
		} else {
			d.recent[d.rng.Intn(len(d.recent))] = m
		}
	}
	return nil
}

// tickQueries issues the per-tick query mix: most-recent probes proportional
// to the updates just performed, plus periodic counting queries.
func (d *driver) tickQueries() error {
	if len(d.recent) == 0 {
		return nil
	}
	probes := d.p.MostRecentPerStep
	for i := 0; i < probes; i++ {
		m := d.recent[d.rng.Intn(len(d.recent))]
		attr := queryAttrs[d.rng.Intn(len(queryAttrs))]
		if _, _, _, err := d.db.MostRecent(m, attr); err != nil {
			return fmt.Errorf("most-recent probe: %w", err)
		}
		d.queries++
		// Every probe is paired with a state lookup, the workflow
		// dispatcher's bread and butter.
		if _, err := d.db.State(m); err != nil {
			return fmt.Errorf("state probe: %w", err)
		}
		d.queries++
	}
	if d.p.CountTicks > 0 && d.ticks%d.p.CountTicks == 0 {
		if _, err := d.db.CountMaterials("clone"); err != nil {
			return err
		}
		if _, err := d.db.CountSteps(StepDetermineSeq); err != nil {
			return err
		}
		if _, err := d.db.CountInState(StTcloneGelled); err != nil {
			return err
		}
		d.queries += 3
	}
	return nil
}

// intervalQueries is the heavier end-of-interval mix: hit-list (set/list
// generation) retrievals and a history scan over a sample of finished
// clones.
func (d *driver) intervalQueries() error {
	done, err := d.db.MaterialsInState(StCloneDone)
	if err != nil {
		return err
	}
	d.queries++
	sample := len(done) / 4
	if sample < 1 {
		sample = len(done)
	}
	for i := 0; i < sample; i++ {
		m := done[d.rng.Intn(len(done))]
		// Set/list generation: fetch the stored BLAST hit list.
		v, _, found, err := d.db.MostRecent(m, "hits")
		if err != nil {
			return err
		}
		if found && v.Kind != labbase.KindList {
			return fmt.Errorf("core: hits attribute is %v, want list", v.Kind)
		}
		d.queries++
		// History scan: the audit-trail read. It counts one query per step
		// record fetched; the enclosing History call is the same scan, not
		// a separate query (counting it too inflated the total by one per
		// audit-trail read).
		hist, err := d.db.History(m)
		if err != nil {
			return err
		}
		for _, h := range hist {
			if _, err := d.db.GetStep(h.Step); err != nil {
				return err
			}
		}
		d.queries += uint64(len(hist))
	}
	return nil
}

// RunAll runs every requested version against the identical workload,
// each in its own subdirectory of dir, one after another.
func RunAll(kinds []StoreKind, dir string, p Params) ([]*RunResult, error) {
	out := make([]*RunResult, 0, len(kinds))
	for _, k := range kinds {
		sub := fmt.Sprintf("%s/%d", dir, int(k))
		if err := mkdir(sub); err != nil {
			return nil, err
		}
		r, err := Run(k, sub, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
