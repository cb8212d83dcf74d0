package texas

import (
	"testing"

	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/storagetest"
)

// TestFaultAllocatesNothing cycles read pins over twice as many cold pages
// as residency allows, so every pin faults. Each fault takes over CLOCK's
// victim — frame and buffer — so the faults allocate nothing. The fault
// count shows that every pin in the measured loop really faulted.
func TestFaultAllocatesNothing(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const resident = 16
	p := &pager{backing: pagefile.NewMem(), pool: pagefile.NewPool(resident)}
	defer p.Close()
	ids := make([]pagefile.PageID, 2*resident)
	for i := range ids {
		f, err := p.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID
		p.Unpin(f, true)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	cycle := func() {
		for _, id := range ids {
			f, err := p.Pin(id, pagefile.ModeRead)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f, false)
		}
	}
	cycle() // the pool now holds the cycle's last pages, none of its first

	const runs = 20
	before := p.Stats().Faults
	allocs := testing.AllocsPerRun(runs, cycle)
	// AllocsPerRun makes one warm-up call before the measured ones.
	if got, want := p.Stats().Faults-before, uint64((runs+1)*len(ids)); got != want {
		t.Fatalf("faults rose by %d over %d pins; every pin must fault for the measurement to mean anything", got, want)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per %d faults; want 0", allocs, len(ids))
	}
}
