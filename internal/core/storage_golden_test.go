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
// for all five versions — and the buffer-pool sweep's faults. The pools are
// 16 pages, small enough that every paged version evicts (at 64, table10
// never faults), so the counters are exactly what the buffer pool's CLOCK
// sweep and each pager's eviction policy produce: a change to either that
// is meant to keep behaviour must leave this file byte-identical.
// Regenerate deliberately with UPDATE_GOLDEN=1.
func TestStorageCountersGolden(t *testing.T) {
	p := testParams()
	p.PoolPages = 16
	p.ResidentPages = 16
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
	sweep, err := RunBufferSweep(dir, p, []int{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("OStore buffer sweep\n")
	for _, row := range sweep.Rows {
		fmt.Fprintf(&b, "  pool=%d faults=%d\n", row.PoolPages, row.Faults)
	}

	got := b.String()
	path := filepath.Join("testdata", "storage_counters.golden")
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
}
