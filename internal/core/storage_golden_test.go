package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStorageCountersGolden pins the deterministic storage counters of
// table10 — each interval's simulated faults, page writes and database size
// for all five versions — and the buffer-pool sweep's faults, at two
// configurations. The test-scale one runs 16-page pools, small enough that
// every paged version evicts (at 64, table10 at test scale never faults),
// so the counters are exactly what the buffer pool's CLOCK sweep and each
// pager's eviction policy produce. The default-params one is what labflow
// prints without flags; it also pins E2's cold-scan faults and sizes, E4's
// storage work per insert and E3's per operation class. A change meant to
// keep behaviour must leave both files byte-identical. Regenerate
// deliberately with UPDATE_GOLDEN=1.
func TestStorageCountersGolden(t *testing.T) {
	small := testParams()
	small.PoolPages = 16
	small.ResidentPages = 16
	for _, c := range []struct {
		file        string
		p           Params
		pools       []int
		experiments bool // also E2, E4 and E3
	}{
		{"storage_counters.golden", small, []int{16, 32, 64}, false},
		{"storage_counters_default.golden", DefaultParams(), []int{64, 192, 512, 4096}, true},
	} {
		t.Run(c.file, func(t *testing.T) {
			got := storageCounters(t, c.p, c.pools, c.experiments)
			path := filepath.Join("testdata", c.file)
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
				t.Errorf("storage counters drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// storageCounters renders the counters TestStorageCountersGolden pins.
func storageCounters(t *testing.T, p Params, pools []int, experiments bool) string {
	dir := t.TempDir()
	results, err := RunAll(AllStoreKinds, dir, p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s\n", r.Store)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-5s majflt=%d page_writes=%d size=%d\n", row.Label, row.MajFlt, row.PageWrites, row.SizeBytes)
		}
	}
	sweep, err := RunBufferSweep(dir, p, pools)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("OStore buffer sweep\n")
	for _, row := range sweep.Rows {
		fmt.Fprintf(&b, "  pool=%d faults=%d\n", row.PoolPages, row.Faults)
	}
	if !experiments {
		return b.String()
	}

	clu, err := RunClustering(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("E2 clustering\n")
	for _, row := range clu.Rows {
		fmt.Fprintf(&b, "  %s faults=%d size=%d\n", row.Store, row.Faults, row.Size)
	}
	evo, err := RunEvolution(StoreTexasTC, filepath.Join(dir, "evolution"), p)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "E4 evolution %s\n", evo.Store)
	fmt.Fprintf(&b, "  versions_before=%d versions_after=%d old_v1=%d\n", evo.VersionsBefore, evo.VersionsAfter, evo.OldStepsV1)
	rs, es := evo.RoutineStats, evo.EvolutionStats
	fmt.Fprintf(&b, "  routine inserts=%d writes=%d allocs=%d page_writes=%d\n", evo.RoutineInserts, rs.Writes, rs.Allocs, rs.PageWrites)
	fmt.Fprintf(&b, "  evolving writes=%d allocs=%d page_writes=%d\n", es.Writes, es.Allocs, es.PageWrites)
	as := evo.AfterStats
	fmt.Fprintf(&b, "  after inserts=%d writes=%d allocs=%d page_writes=%d\n", evo.RoutineInserts, as.Writes, as.Allocs, as.PageWrites)
	ops, err := RunOps(StoreTexasTC, filepath.Join(dir, "ops"), p)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "E3 ops %s\n", ops.Store)
	for _, row := range ops.Rows {
		fmt.Fprintf(&b, "  %s: n=%d reads=%d writes=%d faults=%d\n", row.Op, row.N, row.Stats.Reads, row.Stats.Writes, row.Stats.Faults)
	}
	return b.String()
}
