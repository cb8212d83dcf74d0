package core

import (
	"bytes"
	"fmt"
	"strings"

	"labflow/internal/labbase"
	"labflow/internal/metrics"
	"labflow/internal/storage"
	"labflow/internal/workflow"
)

// --- E2: clustering ablation --------------------------------------------------

// ClusteringRow reports one configuration's cold-scan cost.
type ClusteringRow struct {
	Store  string
	Faults uint64
	Size   uint64
}

// ClusteringResult is the Texas vs Texas+TC locality experiment — the
// paper's headline: "the critical importance of being able to control
// locality of reference to persistent data".
type ClusteringResult struct {
	Rows []ClusteringRow
}

// RunClustering builds identical 1X databases with and without client
// clustering, reopens each cold, and retrieves the full *family* audit
// trail — the clone's history plus every one of its tclones' histories, the
// "tell me everything about this clone" query — for a quarter of the
// finished clones, reporting faults. Clustering keeps a family on
// its own cluster pages; allocation order scatters it across every
// workflow-phase page in the database.
func RunClustering(dir string, p Params) (*ClusteringResult, error) {
	events, lab, err := workload(p, 2)
	if err != nil {
		return nil, err
	}
	res := &ClusteringResult{}
	for _, kind := range []StoreKind{StoreTexas, StoreTexasTC} {
		sub := fmt.Sprintf("%s/clu%d", dir, int(kind))
		built, err := build(kind, sub, p, events, lab)
		if err != nil {
			return nil, err
		}
		clones := built.Clones
		name := built.SM.Name()
		size := built.SM.Stats().SizeBytes
		if err := built.Close(); err != nil {
			return nil, err
		}

		// Reopen cold: nothing resident, every page read is a fault.
		db, sm, err := OpenDB(kind, sub, p)
		if err != nil {
			return nil, err
		}
		base := sm.Stats().Faults
		for i := 0; i < len(clones); i += 4 {
			if err := scanFamily(db, clones[i]); err != nil {
				db.Close()
				return nil, err
			}
		}
		row := ClusteringRow{
			Store:  name,
			Faults: sm.Stats().Faults - base,
			Size:   size,
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scanFamily reads a clone's full audit trail and, through its
// associate_tclone steps, every spawned tclone's trail.
func scanFamily(db *labbase.DB, clone workflow.ID) error {
	hist, err := db.History(clone)
	if err != nil {
		return err
	}
	for _, h := range hist {
		step, err := db.GetStep(h.Step)
		if err != nil {
			return err
		}
		if step.Class != StepAssociateTclone {
			continue
		}
		for _, t := range step.Materials[1:] { // spawned tclones
			if _, err := readTrail(db, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// FormatClustering renders E2.
func FormatClustering(res *ClusteringResult) string {
	var b strings.Builder
	b.WriteString("Clustering ablation (E2) — cold family-audit-trail retrieval, quarter of all clones\n\n")
	tab := metrics.NewTable("Version", "faults", "size (bytes)")
	for _, r := range res.Rows {
		tab.Row(r.Store, metrics.Comma(r.Faults), metrics.Comma(r.Size))
	}
	_ = tab.Write(&b)
	return b.String()
}

// --- E4: schema evolution ------------------------------------------------------

// EvolutionResult measures schema evolution by use (Section 5.1/7): adding a
// step-class version mid-run must not touch old data and must cost no more
// than a normal insert.
type EvolutionResult struct {
	Store            string
	StepsBefore      uint64
	VersionsBefore   int
	VersionsAfter    int
	OldStepsV1       uint64 // pre-evolution instances still on version 1
	OldStepsVerified bool
	// RoutineStats, EvolutionStats and AfterStats are the storage
	// manager's counter deltas over the RoutineInserts inserts before the
	// evolution, over the evolving insert alone, and over as many inserts
	// after it: what shows that evolution does not reorganize data and
	// leaves the steady-state insert's work unchanged.
	RoutineInserts int
	RoutineStats   storage.Stats
	EvolutionStats storage.Stats
	AfterStats     storage.Stats
	// OldStepsIntact reports that every version-1 instance's stored record
	// is byte-for-byte what it was before the evolution.
	OldStepsIntact bool
}

// RunEvolution runs E4 on the given version.
func RunEvolution(kind StoreKind, dir string, p Params) (*EvolutionResult, error) {
	built, err := Build(kind, dir, p, 1)
	if err != nil {
		return nil, err
	}
	defer built.Close()
	db := built.DB
	clones := built.Clones
	if len(clones) == 0 {
		return nil, fmt.Errorf("core: no finished clones")
	}
	res := &EvolutionResult{Store: built.SM.Name()}
	res.StepsBefore, _ = db.CountSteps(StepDetermineSeq)
	vers, err := db.StepClassVersions(StepDetermineSeq)
	if err != nil {
		return nil, err
	}
	res.VersionsBefore = len(vers)

	v1Attrs := []labbase.AttrValue{
		{Name: "sequence", Value: labbase.String("ACGT")},
		{Name: "quality", Value: labbase.Float64(0.5)},
		{Name: "read_length", Value: labbase.Int64(4)},
		{Name: "ok", Value: labbase.Bool(true)},
	}
	record := func(attrs []labbase.AttrValue, vt int64) error {
		if err := db.Begin(); err != nil {
			return err
		}
		if _, err := db.RecordStep(labbase.StepSpec{
			Class: StepDetermineSeq, ValidTime: vt,
			Materials: []workflow.ID{clones[0]},
			Attrs:     attrs,
		}); err != nil {
			return err
		}
		return db.Commit()
	}

	const n = 200
	res.RoutineInserts = n
	vt := built.Clock
	mark := built.SM.Stats()
	for i := 0; i < n; i++ {
		vt++
		if err := record(v1Attrs, vt); err != nil {
			return nil, err
		}
	}
	res.RoutineStats = built.SM.Stats().Sub(mark)
	v1Records, err := stepRecords(built, StepDetermineSeq)
	if err != nil {
		return nil, err
	}

	// The re-engineering moment: the step now also reports a chemistry
	// attribute. One ordinary insert creates version 2.
	v2Attrs := append(append([]labbase.AttrValue(nil), v1Attrs...),
		labbase.AttrValue{Name: "chemistry", Value: labbase.String("dye-terminator")})
	vt++
	mark = built.SM.Stats()
	if err := record(v2Attrs, vt); err != nil {
		return nil, err
	}
	res.EvolutionStats = built.SM.Stats().Sub(mark)

	mark = built.SM.Stats()
	for i := 0; i < n; i++ {
		vt++
		if err := record(v2Attrs, vt); err != nil {
			return nil, err
		}
	}
	res.AfterStats = built.SM.Stats().Sub(mark)

	vers, err = db.StepClassVersions(StepDetermineSeq)
	if err != nil {
		return nil, err
	}
	res.VersionsAfter = len(vers)

	// Old instances must still be bound to version 1 with no new attribute.
	res.OldStepsVerified = true
	err = db.ScanSteps(StepDetermineSeq, func(s *labbase.Step) error {
		if s.Version == 1 {
			res.OldStepsV1++
			if _, has := s.Attr("chemistry"); has {
				res.OldStepsVerified = false
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.OldStepsIntact = true
	for _, before := range v1Records {
		after, err := built.SM.Read(before.oid)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(before.bytes, after) {
			res.OldStepsIntact = false
		}
	}
	return res, nil
}

// storedRecord is one object's bytes as the storage manager holds them.
type storedRecord struct {
	oid   storage.OID
	bytes []byte
}

// stepRecords reads the stored record of every instance of a step class.
func stepRecords(built *BuiltDB, class string) ([]storedRecord, error) {
	var records []storedRecord
	err := built.DB.ScanSteps(class, func(s *labbase.Step) error {
		b, err := built.SM.Read(s.OID)
		if err != nil {
			return err
		}
		records = append(records, storedRecord{s.OID, append([]byte(nil), b...)})
		return nil
	})
	return records, err
}

// FormatEvolution renders E4.
func FormatEvolution(res *EvolutionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Schema evolution (E4) — %s\n\n", res.Store)
	tab := metrics.NewTable("Measure", "Value")
	tab.Row("step-class versions before", fmt.Sprintf("%d", res.VersionsBefore))
	tab.Row("step-class versions after", fmt.Sprintf("%d", res.VersionsAfter))
	tab.Row("v1 instances preserved untouched", fmt.Sprintf("%d (verified=%v, bytes intact=%v)", res.OldStepsV1, res.OldStepsVerified, res.OldStepsIntact))
	perInsert := func(v uint64) string { return fmt.Sprintf("%.2f", float64(v)/float64(res.RoutineInserts)) }
	row := func(what string, f func(storage.Stats) uint64) {
		tab.Row(what+": routine insert / evolving insert / insert after",
			fmt.Sprintf("%s / %d / %s", perInsert(f(res.RoutineStats)), f(res.EvolutionStats), perInsert(f(res.AfterStats))))
	}
	row("objects written", func(s storage.Stats) uint64 { return s.Writes })
	row("objects allocated", func(s storage.Stats) uint64 { return s.Allocs })
	row("pages written", func(s storage.Stats) uint64 { return s.PageWrites })
	_ = tab.Write(&b)
	return b.String()
}

// --- E5: buffer-pool sweep ------------------------------------------------------

// SweepRow is one pool size's outcome on the standard workload.
type SweepRow struct {
	PoolPages int
	Faults    uint64
}

// SweepResult is the OStore buffer-sensitivity ablation.
type SweepResult struct {
	Rows []SweepRow
}

// RunBufferSweep runs the workload, generated once, under several OStore
// pool sizes.
func RunBufferSweep(dir string, p Params, pools []int) (*SweepResult, error) {
	events, _, err := workload(p, p.Intervals)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{}
	for i, pool := range pools {
		pp := p
		pp.PoolPages = pool
		db, sm, err := OpenDB(StoreOStore, fmt.Sprintf("%s/sweep%d", dir, i), pp)
		if err != nil {
			return nil, err
		}
		_, err = measure(db, pp, events)
		row := SweepRow{PoolPages: pool, Faults: sm.Stats().Faults}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatSweep renders E5.
func FormatSweep(res *SweepResult) string {
	var b strings.Builder
	b.WriteString("Buffer-pool sweep (E5) — OStore, standard workload\n\n")
	tab := metrics.NewTable("Pool pages", "Pool bytes", "faults")
	for _, r := range res.Rows {
		tab.Row(fmt.Sprintf("%d", r.PoolPages), metrics.Comma(uint64(r.PoolPages)*8192), metrics.Comma(r.Faults))
	}
	_ = tab.Write(&b)
	return b.String()
}
