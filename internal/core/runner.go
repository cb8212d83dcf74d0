package core

import (
	"fmt"

	"labflow/internal/labbase"
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

// Run executes the LabFlow-1 workload on one server version, in a
// subdirectory of dir as RunAll does. The event stream is a pure function
// of p.Seed, so every version sees identical work.
func Run(kind StoreKind, dir string, p Params) (*RunResult, error) {
	rs, err := RunAll([]StoreKind{kind}, dir, p)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunStore executes the LabFlow-1 workload on an already-open store, which
// the caller keeps (tests compare a 1-shard cluster's result with Run's).
// Stores with more than one shard are refused: table10's gel batches build
// material sets over arbitrary materials, which violates the
// single-partition step contract.
func RunStore(db labbase.Store, p Params) (*RunResult, error) {
	if s, ok := db.(interface{ Shards() int }); ok && s.Shards() > 1 {
		return nil, fmt.Errorf("core: table10 supports 1 shard only: gel batches build material sets over arbitrary materials, so N>1 would violate the single-partition step contract")
	}
	events, _, err := workload(p, p.Intervals)
	if err != nil {
		return nil, err
	}
	return measure(db, p, events)
}

// measure applies the stream, query mix included, and totals the run.
func measure(db labbase.Store, p Params, events []event) (*RunResult, error) {
	a, err := applySlice(db, events, true)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Rows: a.Rows}
	for _, r := range res.Rows {
		res.Total.MajFlt += r.MajFlt
		res.Total.PageWrites += r.PageWrites
		res.Total.Steps += r.Steps
		res.Total.Queries += r.Queries
	}
	res.Total.Label = "total"
	_, finalStats := db.StoreStats()
	res.Total.SizeBytes = finalStats.SizeBytes

	res.Clones = uint64((p.BaseClones + 1) / 2 * p.Intervals)
	res.StepCount = a.Steps
	if n, err := db.CountMaterials("material"); err == nil {
		res.Materials = n
	}
	res.Dump, err = db.Dump()
	if err != nil {
		return nil, fmt.Errorf("final dump: %w", err)
	}
	res.Store, _ = db.StoreStats()
	return res, nil
}

// RunAll runs every requested version against the identical workload,
// generated once, each in its own subdirectory of dir, one after another.
func RunAll(kinds []StoreKind, dir string, p Params) ([]*RunResult, error) {
	events, _, err := workload(p, p.Intervals)
	if err != nil {
		return nil, err
	}
	out := make([]*RunResult, 0, len(kinds))
	for _, k := range kinds {
		db, _, err := OpenDB(k, fmt.Sprintf("%s/%d", dir, int(k)), p)
		if err != nil {
			return nil, err
		}
		r, err := measure(db, p, events)
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", k, err)
		}
		out = append(out, r)
	}
	return out, nil
}
