package shard

import (
	"errors"
	"fmt"
	"sync"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// view is the read side of one shard. open checks out a labbase.Reader over
// the shard, or says why none can be had; done takes it back together with
// the error the read ended in, and returns that error as the caller should
// see it. What backs the reader is the member's business — a pooled wire
// connection to the shard's server, or a test's fake.
// (Two calls rather than one that takes a callback: a closure passed through
// an interface escapes, and with it every result the read assigns — four
// heap allocations on a routed MostRecent.)
type view interface {
	open() (labbase.Reader, error)
	done(rd labbase.Reader, err error) error
}

// read runs fn against a reader over v.
func read(v view, fn func(labbase.Reader) error) error {
	rd, err := v.open()
	if err != nil {
		return err
	}
	return v.done(rd, fn(rd))
}

// reads is the package's one implementation of labbase.Reader over N
// shards; the core, and so shard.Router and its snapshot handle, embed it.
//
// Routing: an OID names its shard in its high index bits, a material name
// hashes to one (ShardFor), and catalog listings come from shard 0 — the
// broadcast discipline keeps every shard's catalog identical. A routed read
// returns its shard's result and error bytes untouched.
//
// Merging: a cross-shard read runs on every shard at once (gather), and the
// first failing shard in shard order decides the error (see wrap). Ordered
// results concatenate in shard order, which for OID lists is globally
// OID-sorted: every shard-k OID in a segment sorts below every shard-k+1
// OID, so there is no merge pass and the answer is byte-identical to a
// 1-shard run over the same logical data. Counts sum. Scans visit
// shard-major, each shard in its native scan order.
//
// One shard: every read passes straight through to shard 0, so a 1-shard
// store's bytes — data and errors — are the plain store's.
type reads struct {
	views []view
	// metrics receives the fan-out width of every gather and batch; nil
	// records nothing (its methods accept a nil receiver).
	metrics *routerMetrics
}

var (
	_ labbase.Reader       = (*reads)(nil)
	_ labbase.IndexScanner = (*reads)(nil)
)

// visit is what a cross-shard read does on shard k, given a reader over it.
type visit func(k int, rd labbase.Reader) error

// gather runs fn against a reader over every shard at once, one goroutine
// each, reports each shard's error, and records the fan-out width.
func (r *reads) gather(fn visit) []error {
	errs := make([]error, len(r.views))
	var wg sync.WaitGroup
	for k, v := range r.views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = read(v, func(rd labbase.Reader) error { return fn(k, rd) })
		}()
	}
	wg.Wait()
	r.metrics.fanout(len(r.views))
	return errs
}

// wrap names shard k in an error that came from it. One shard passes errors
// through verbatim, and an ErrShardDown error already names its shard.
func (r *reads) wrap(k int, err error) error {
	if len(r.views) == 1 || errors.Is(err, ErrShardDown) {
		return err
	}
	return fmt.Errorf("shard %d: %w", k, err)
}

// shardOfN validates and decodes the shard number in an OID.
func shardOfN(oid storage.OID, n int) (int, error) {
	k := ShardOfOID(oid)
	if k >= n {
		return 0, fmt.Errorf("shard: %v names shard %d of %d: %w",
			oid, k, n, storage.ErrNoSuchObject)
	}
	return k, nil
}

// routed checks out a reader over the shard owning oid.
func (r *reads) routed(oid storage.OID) (labbase.Reader, view, error) {
	k, err := shardOfN(oid, len(r.views))
	if err != nil {
		return nil, nil, err
	}
	rd, err := r.views[k].open()
	return rd, r.views[k], err
}

// routedGet is a routed read of the common shape: one result, keyed by the
// OID alone.
func routedGet[T any](r *reads, oid storage.OID, get func(labbase.Reader, storage.OID) (T, error)) (T, error) {
	rd, v, err := r.routed(oid)
	if err != nil {
		var zero T
		return zero, err
	}
	out, err := get(rd, oid)
	return out, v.done(rd, err)
}

// all runs fn on every shard; the first failing shard in shard order
// decides the error.
func (r *reads) all(fn visit) error {
	if len(r.views) == 1 {
		return read(r.views[0], func(rd labbase.Reader) error { return fn(0, rd) })
	}
	for k, err := range r.gather(fn) {
		if err != nil {
			return r.wrap(k, err)
		}
	}
	return nil
}

// --- catalog listings (shard 0) ---------------------------------------------

// names reads one of shard 0's catalog listings; the Reader signature has
// no error to return, so a shard that cannot be read lists nothing.
func (r *reads) names(list func(labbase.Reader) []string) []string {
	rd, err := r.views[0].open()
	if err != nil {
		return nil
	}
	defer r.views[0].done(rd, nil)
	return list(rd)
}

// MaterialClasses lists material classes from shard 0.
func (r *reads) MaterialClasses() []string { return r.names(labbase.Reader.MaterialClasses) }

// StepClasses lists step classes from shard 0.
func (r *reads) StepClasses() []string { return r.names(labbase.Reader.StepClasses) }

// States lists states from shard 0.
func (r *reads) States() []string { return r.names(labbase.Reader.States) }

// StepClassVersions lists a class's versions from shard 0.
func (r *reads) StepClassVersions(name string) (vers [][]string, err error) {
	err = read(r.views[0], func(rd labbase.Reader) (err error) { vers, err = rd.StepClassVersions(name); return err })
	return vers, err
}

// --- routed reads -----------------------------------------------------------

// LookupMaterial consults only the name's home shard.
func (r *reads) LookupMaterial(name string) (storage.OID, bool) {
	v := r.views[ShardFor(name, len(r.views))]
	rd, err := v.open()
	if err != nil {
		return storage.NilOID, false
	}
	defer v.done(rd, nil)
	return rd.LookupMaterial(name)
}

// GetMaterial routes by OID.
func (r *reads) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	return routedGet(r, oid, labbase.Reader.GetMaterial)
}

// State routes by OID.
func (r *reads) State(oid storage.OID) (string, error) {
	return routedGet(r, oid, labbase.Reader.State)
}

// SetMembers routes by the set's OID.
func (r *reads) SetMembers(oid storage.OID) ([]storage.OID, error) {
	return routedGet(r, oid, labbase.Reader.SetMembers)
}

// GetStep routes by OID.
func (r *reads) GetStep(oid storage.OID) (*labbase.Step, error) {
	return routedGet(r, oid, labbase.Reader.GetStep)
}

// History routes by OID.
func (r *reads) History(oid storage.OID) ([]labbase.HistoryEntry, error) {
	return routedGet(r, oid, labbase.Reader.History)
}

// StepsInvolving routes by OID.
func (r *reads) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	return routedGet(r, oid, labbase.Reader.StepsInvolving)
}

// MostRecent routes by OID.
func (r *reads) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	rd, v, err := r.routed(oid)
	if err != nil {
		return labbase.Value{}, storage.NilOID, false, err
	}
	val, src, found, err := rd.MostRecent(oid, attr)
	return val, src, found, v.done(rd, err)
}

// MostRecentScan routes by OID.
func (r *reads) MostRecentScan(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	rd, v, err := r.routed(oid)
	if err != nil {
		return labbase.Value{}, storage.NilOID, false, err
	}
	val, src, found, err := rd.MostRecentScan(oid, attr)
	return val, src, found, v.done(rd, err)
}

// MostRecentAsOf routes by OID.
func (r *reads) MostRecentAsOf(oid storage.OID, attr string, t int64) (labbase.Value, storage.OID, bool, error) {
	rd, v, err := r.routed(oid)
	if err != nil {
		return labbase.Value{}, storage.NilOID, false, err
	}
	val, src, found, err := rd.MostRecentAsOf(oid, attr, t)
	return val, src, found, v.done(rd, err)
}

// AttrTimeline routes by OID.
func (r *reads) AttrTimeline(oid storage.OID, attr string) ([]labbase.TimelineEntry, error) {
	rd, v, err := r.routed(oid)
	if err != nil {
		return nil, err
	}
	out, err := rd.AttrTimeline(oid, attr)
	return out, v.done(rd, err)
}

// --- cross-shard reads ------------------------------------------------------

// MaterialsInState concatenates the shards' OID-sorted lists in shard
// order, which is globally OID-sorted.
func (r *reads) MaterialsInState(state string) ([]storage.OID, error) {
	parts := make([][]storage.OID, len(r.views))
	err := r.all(func(k int, rd labbase.Reader) (err error) {
		parts[k], err = rd.MaterialsInState(state)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	var all []storage.OID
	for _, part := range parts {
		all = append(all, part...)
	}
	return all, nil
}

// sum adds up one per-shard count.
func (r *reads) sum(count func(labbase.Reader) (uint64, error)) (uint64, error) {
	parts := make([]uint64, len(r.views))
	err := r.all(func(k int, rd labbase.Reader) (err error) {
		parts[k], err = count(rd)
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, n := range parts {
		total += n
	}
	return total, nil
}

// CountInState sums the per-shard counts.
func (r *reads) CountInState(state string) (uint64, error) {
	return r.sum(func(rd labbase.Reader) (uint64, error) { return rd.CountInState(state) })
}

// CountMaterials sums the per-shard counts (subclass-inclusive, as on a
// single store).
func (r *reads) CountMaterials(class string) (uint64, error) {
	return r.sum(func(rd labbase.Reader) (uint64, error) { return rd.CountMaterials(class) })
}

// CountSteps sums the per-shard counts.
func (r *reads) CountSteps(class string) (uint64, error) {
	return r.sum(func(rd labbase.Reader) (uint64, error) { return rd.CountSteps(class) })
}

// scan runs one of the Reader's scans shard-major: every shard's records
// are gathered, then replayed to fn. An fn that stops early cannot shorten
// the per-shard scans, but its error aborts the replay, named for the shard
// whose record it was handed.
func scan[T any](r *reads, each func(labbase.Reader, func(T) error) error, fn func(T) error) error {
	parts := make([][]T, len(r.views))
	err := r.all(func(k int, rd labbase.Reader) error {
		return each(rd, func(x T) error {
			parts[k] = append(parts[k], x)
			return nil
		})
	})
	if err != nil {
		return err
	}
	for k, part := range parts {
		for _, x := range part {
			if err := fn(x); err != nil {
				return r.wrap(k, err)
			}
		}
	}
	return nil
}

// ScanMaterials visits a class's materials shard-major.
func (r *reads) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	return scan(r, func(rd labbase.Reader, visit func(*labbase.Material) error) error {
		return rd.ScanMaterials(class, visit)
	}, fn)
}

// ScanStateIndex walks each shard's state index in shard order, which is
// OID order overall: MaterialsInState's list, one OID at a time. A shard
// whose reader lacks the walk (a wire connection) lists its members
// instead.
func (r *reads) ScanStateIndex(state string, fn func(storage.OID) error) error {
	return scan(r, func(rd labbase.Reader, visit func(storage.OID) error) error {
		return labbase.WalkState(rd, state, visit)
	}, fn)
}

// ScanClassExtent walks each shard's extent of exactly class, shard-major.
func (r *reads) ScanClassExtent(class string, fn func(storage.OID) error) error {
	return scan(r, func(rd labbase.Reader, visit func(storage.OID) error) error {
		return labbase.WalkClass(rd, class, visit)
	}, fn)
}

// ScanAllMaterials is ScanMaterials over every class.
func (r *reads) ScanAllMaterials(fn func(*labbase.Material) error) error {
	return scan(r, labbase.Reader.ScanAllMaterials, fn)
}

// ScanSteps visits a class's steps shard-major.
func (r *reads) ScanSteps(class string, fn func(*labbase.Step) error) error {
	return scan(r, func(rd labbase.Reader, visit func(*labbase.Step) error) error {
		return rd.ScanSteps(class, visit)
	}, fn)
}

// Dump sums the per-shard audit counters. Per-shard deduplication equals
// global deduplication: a batched step's history entries live on its one
// home shard.
func (r *reads) Dump() (labbase.DumpStats, error) {
	parts := make([]labbase.DumpStats, len(r.views))
	err := r.all(func(k int, rd labbase.Reader) (err error) {
		parts[k], err = rd.Dump()
		return err
	})
	var total labbase.DumpStats
	if err != nil {
		return total, err
	}
	for _, ds := range parts {
		total.Materials += ds.Materials
		total.Steps += ds.Steps
		total.AttrValues += ds.AttrValues
		total.HistoryRead += ds.HistoryRead
	}
	return total, nil
}
