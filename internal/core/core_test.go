package core

import (
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// testParams is a scaled-down configuration that keeps tests fast.
func testParams() Params {
	p := DefaultParams()
	p.BaseClones = 12
	p.TclonesPerClone = 5
	p.Intervals = 2
	p.SeqLen = 600
	p.ReadLen = 200
	p.BatchSize = 8
	p.PoolPages = 64
	p.ResidentPages = 64
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.BaseClones = 0 },
		func(p *Params) { p.Intervals = 0 },
		func(p *Params) { p.TclonesPerClone = 0 },
		func(p *Params) { p.BatchSize = 0 },
		func(p *Params) { p.SeqLen = 10; p.ReadLen = 100 },
		func(p *Params) { p.SeqFailProb = 1.5 },
		func(p *Params) { p.MapFailProb = -0.1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestStoreKindNames(t *testing.T) {
	names := []string{"OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm"}
	for i, k := range AllStoreKinds {
		if k.String() != names[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), names[i])
		}
		parsed, err := ParseStoreKind(names[i])
		if err != nil || parsed != k {
			t.Errorf("ParseStoreKind(%q) = %v, %v", names[i], parsed, err)
		}
		parsed, err = ParseStoreKind(lower(names[i]))
		if err != nil || parsed != k {
			t.Errorf("ParseStoreKind(lower %q) = %v, %v", names[i], parsed, err)
		}
	}
	if _, err := ParseStoreKind("oracle"); err == nil {
		t.Error("unknown store should fail to parse")
	}
}

// TestTable10Shape runs the full benchmark on all five versions at test
// scale and checks the qualitative findings (experiment E1 / F1).
func TestTable10Shape(t *testing.T) {
	results, err := RunAll(AllStoreKinds, t.TempDir(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, prob := range CheckShape(results) {
		t.Error(prob)
	}
	out := FormatTable10(results)
	for _, want := range []string{"Intvl", "majflt (sim)", "size (bytes)", "0.5X", "1.0X", "OStore", "Texas+TC", "Texas-mm"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	series := FormatSeries(results)
	if !strings.Contains(series, "Figure") || !strings.Contains(series, "OStore-mm") {
		t.Errorf("series output malformed:\n%s", series)
	}
	// Dump visited every material and step.
	for _, r := range results {
		if r.Dump.Materials != r.Materials {
			t.Errorf("%s: dump materials %d != %d", r.Store, r.Dump.Materials, r.Materials)
		}
		if r.Dump.Steps != r.StepCount {
			t.Errorf("%s: dump steps %d != %d", r.Store, r.Dump.Steps, r.StepCount)
		}
	}
}

// TestWorkloadDeterminism: two runs with the same seed produce identical
// workloads and identical database contents.
func TestWorkloadDeterminism(t *testing.T) {
	p := testParams()
	a, err := Run(StoreTexasMM, t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(StoreTexasMM, t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepCount != b.StepCount || a.Materials != b.Materials || a.Dump != b.Dump {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
	if a.Total.Queries != b.Total.Queries {
		t.Errorf("query counts differ: %d vs %d", a.Total.Queries, b.Total.Queries)
	}
	// A different seed must change the workload.
	p2 := p
	p2.Seed = 999
	c, err := Run(StoreTexasMM, t.TempDir(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if c.StepCount == a.StepCount && c.Dump == a.Dump {
		t.Error("different seeds gave identical workloads")
	}
}

// TestWorkflowSemantics builds a database and checks the science: every
// finished clone has an assembled consensus close to its true sequence, a
// stored hit list, and a complete audit trail.
func TestWorkflowSemantics(t *testing.T) {
	p := testParams()
	built, err := Build(StoreOStoreMM, t.TempDir(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	db := built.DB
	if len(built.Clones) != p.BaseClones {
		t.Fatalf("finished clones = %d, want %d", len(built.Clones), p.BaseClones)
	}
	// The lab knows each clone by the id the generator gave it.
	traceID := make(map[storage.OID]storage.OID, len(built.oids))
	for id, oid := range built.oids {
		traceID[oid] = storage.MakeOID(storage.SegMaterial, id)
	}
	for _, c := range built.Clones {
		cons, _, found, err := db.MostRecent(c, "consensus")
		if err != nil || !found {
			t.Fatalf("clone %v: consensus missing (%v)", c, err)
		}
		truth := built.Lab.truth[traceID[c]]
		// Reads start at random positions, so the consensus covers a prefix
		// region of the insert: never longer than the truth, never shorter
		// than one read.
		if len(cons.Str) > len(truth) || len(cons.Str) < p.ReadLen {
			t.Errorf("clone %v: consensus length %d outside [%d, %d]", c, len(cons.Str), p.ReadLen, len(truth))
		}
		// Covered (non-N) positions agree with the truth almost everywhere.
		match, covered := 0, 0
		for i := 0; i < len(cons.Str); i++ {
			if cons.Str[i] == 'N' {
				continue
			}
			covered++
			if cons.Str[i] == truth[i] {
				match++
			}
		}
		if covered == 0 || float64(match)/float64(covered) < 0.9 {
			t.Errorf("clone %v: consensus identity %d/%d too low", c, match, covered)
		}
		// Coverage was recorded and positive.
		cov, _, found, err := db.MostRecent(c, "coverage")
		if err != nil || !found || cov.Float <= 0 {
			t.Errorf("clone %v: coverage = %v, %v, %v", c, cov, found, err)
		}
		// The hit list is a list of [accession, score] pairs.
		hits, _, found, err := db.MostRecent(c, "hits")
		if err != nil || !found {
			t.Fatalf("clone %v: hits missing (%v)", c, err)
		}
		for _, h := range hits.List {
			if h.Kind != labbase.KindList || len(h.List) != 2 ||
				h.List[0].Kind != labbase.KindString || h.List[1].Kind != labbase.KindFloat {
				t.Fatalf("clone %v: malformed hit %v", c, h)
			}
		}
		hist, err := db.History(c)
		if err != nil || len(hist) < 5 {
			t.Errorf("clone %v: history %d entries, %v", c, len(hist), err)
		}
	}
	// Homology database grew to one entry per finished clone.
	if built.Lab.Published() != len(built.Clones) {
		t.Errorf("published = %d, want %d", built.Lab.Published(), len(built.Clones))
	}
	// Homolog families make some hit lists non-empty (set/list generation
	// stores real content).
	var totalHits int
	for _, c := range built.Clones {
		if hits, _, found, _ := db.MostRecent(c, "hits"); found {
			totalHits += len(hits.List)
		}
	}
	if totalHits == 0 {
		t.Error("no homology hits stored anywhere; families should produce some")
	}
	// Every tclone ended sequenced, with its own read on record.
	n, err := db.CountInState(StTcloneDone)
	if err != nil || n != uint64(p.BaseClones*p.TclonesPerClone) {
		t.Errorf("sequenced tclones = %d, %v", n, err)
	}
}

func TestOpsProfile(t *testing.T) {
	res, err := RunOps(StoreTexasMM, t.TempDir(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("ops rows = %d, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.N <= 0 {
			t.Errorf("row %q has bad numbers: %+v", r.Op, r)
		}
	}
	// The index must read fewer stored objects per op than the history
	// scan it saves.
	var idx, scan OpsRow
	for _, r := range res.Rows {
		if strings.Contains(r.Op, "(index)") {
			idx = r
		}
		if strings.Contains(r.Op, "(history scan)") {
			scan = r
		}
	}
	if idx.N == 0 || scan.N == 0 || scan.Stats.Reads == 0 {
		t.Fatalf("missing index/scan rows: %+v, %+v", idx, scan)
	}
	if idx.Stats.Reads*uint64(scan.N) >= scan.Stats.Reads*uint64(idx.N) {
		t.Errorf("index reads %d over %d ops, not fewer per op than the scan's %d over %d",
			idx.Stats.Reads, idx.N, scan.Stats.Reads, scan.N)
	}
	out := FormatOps(res)
	if !strings.Contains(out, "tracking update") || !strings.Contains(out, "reads/op") {
		t.Errorf("ops table malformed:\n%s", out)
	}
}

func TestClusteringExperiment(t *testing.T) {
	res, err := RunClustering(t.TempDir(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	plain, tc := res.Rows[0], res.Rows[1]
	if plain.Store != "Texas" || tc.Store != "Texas+TC" {
		t.Fatalf("row order: %q, %q", plain.Store, tc.Store)
	}
	if tc.Faults >= plain.Faults {
		t.Errorf("Texas+TC cold-scan faults %d not below Texas %d", tc.Faults, plain.Faults)
	}
	out := FormatClustering(res)
	if !strings.Contains(out, "Clustering ablation") {
		t.Errorf("clustering output malformed:\n%s", out)
	}
}

func TestEvolutionExperiment(t *testing.T) {
	res, err := RunEvolution(StoreTexasMM, t.TempDir(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.VersionsBefore != 1 || res.VersionsAfter != 2 {
		t.Errorf("versions %d -> %d, want 1 -> 2", res.VersionsBefore, res.VersionsAfter)
	}
	if !res.OldStepsVerified || res.OldStepsV1 == 0 {
		t.Errorf("old instances not preserved: %+v", res)
	}
	// Evolution must not reorganize data: the evolving insert does a
	// routine insert's storage work plus a small constant (the new version's
	// catalog entry), however many old instances exist, and leaves every
	// old instance's stored bytes alone. Counters, not wall clock: one
	// timing sample against a mean says nothing on a loaded host.
	const slack = 4 // objects, or pages, beyond the costliest share of a routine insert
	n := uint64(res.RoutineInserts)
	routine, evolving := res.RoutineStats, res.EvolutionStats
	t.Logf("routine insert (mean of %d): %.2f writes, %.2f allocs, %.2f page writes; evolving insert: %d, %d, %d",
		n, float64(routine.Writes)/float64(n), float64(routine.Allocs)/float64(n), float64(routine.PageWrites)/float64(n),
		evolving.Writes, evolving.Allocs, evolving.PageWrites)
	for _, c := range []struct {
		what              string
		routine, evolving uint64
	}{
		{"object writes", routine.Writes, evolving.Writes},
		{"object allocations", routine.Allocs, evolving.Allocs},
		{"page writes", routine.PageWrites, evolving.PageWrites},
	} {
		bound := (c.routine+n-1)/n + slack
		if c.evolving > bound {
			t.Errorf("evolving insert: %d %s, a routine insert at most %d", c.evolving, c.what, bound)
		}
		if res.OldStepsV1 <= bound {
			t.Errorf("only %d old instances: rewriting them all would pass the %s bound of %d", res.OldStepsV1, c.what, bound)
		}
	}
	if !res.OldStepsIntact {
		t.Errorf("evolution changed the stored bytes of version-1 instances")
	}
	out := FormatEvolution(res)
	if !strings.Contains(out, "Schema evolution") {
		t.Errorf("evolution output malformed:\n%s", out)
	}
}

func TestBufferSweep(t *testing.T) {
	res, err := RunBufferSweep(t.TempDir(), testParams(), []int{32, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, big := res.Rows[0], res.Rows[1]
	if small.Faults <= big.Faults {
		t.Errorf("small pool faults %d not above big pool faults %d", small.Faults, big.Faults)
	}
	out := FormatSweep(res)
	if !strings.Contains(out, "Buffer-pool sweep") {
		t.Errorf("sweep output malformed:\n%s", out)
	}
}

// TestQueryCountPinned pins the exact query count of a tiny deterministic
// run, guarding the query mix's counting rules (the generator draws the
// mix, apply counts it). In
// particular the audit-trail read counts one query per step record fetched
// — not an extra one for the History call that drives the scan, which used
// to inflate the total by one per sampled audit trail. If a deliberate
// change to the query mix moves this number, re-derive it and update the
// constant alongside the mix change.
func TestQueryCountPinned(t *testing.T) {
	p := DefaultParams()
	p.BaseClones = 4
	p.TclonesPerClone = 2
	p.Intervals = 1
	p.SeqLen = 300
	p.ReadLen = 100
	p.BatchSize = 4
	p.PoolPages = 64
	p.ResidentPages = 64
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const wantQueries = 17
	const wantSteps = 19
	for _, k := range []StoreKind{StoreTexasMM, StoreOStoreMM} {
		r, err := Run(k, t.TempDir(), p)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if r.Total.Queries != wantQueries {
			t.Errorf("%s: Total.Queries = %d, want %d", k, r.Total.Queries, wantQueries)
		}
		if r.StepCount != wantSteps {
			t.Errorf("%s: StepCount = %d, want %d", k, r.StepCount, wantSteps)
		}
	}
}
