package ostore

import (
	"testing"

	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/storagetest"
)

// TestFaultAllocatesNothing cycles read pins over twice as many cold pages
// as the pool holds, so every pin faults. Each fault takes over CLOCK's
// victim — frame and buffer — and the page server answers on the pager's
// one reply channel, so the faults allocate nothing. The fault count shows
// that every pin in the measured loop really faulted.
func TestFaultAllocatesNothing(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := newWhiteboxPager(t, "")
	ids := make([]pagefile.PageID, 2*p.capacity)
	for i := range ids {
		f, err := p.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID
		p.Unpin(f, true)
	}
	durable, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := durable(); err != nil {
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
