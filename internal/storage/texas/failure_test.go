package texas

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"labflow/internal/storage/pagefile"
)

var errInjected = errors.New("injected backing failure")

// flakyBacking fails, while armed, the next ReadPage of page readFail and
// the next WritePage of any page (recording which), then heals.
type flakyBacking struct {
	pagefile.Backing
	readFail            pagefile.PageID
	failRead, failWrite bool
	writeFailed         pagefile.PageID
}

func (b *flakyBacking) ReadPage(id pagefile.PageID, buf []byte) error {
	if b.failRead && id == b.readFail {
		b.failRead = false
		return errInjected
	}
	return b.Backing.ReadPage(id, buf)
}

func (b *flakyBacking) WritePage(id pagefile.PageID, data []byte) error {
	if b.failWrite {
		b.failWrite = false
		b.writeFailed = id
		return errInjected
	}
	return b.Backing.WritePage(id, data)
}

const failurePool = 16

// fullPager returns a pager whose pool holds failurePool clean, committed
// pages, and the one page of the store that is not resident.
func fullPager(t *testing.T) (*pager, *flakyBacking, pagefile.PageID) {
	t.Helper()
	backing := &flakyBacking{Backing: pagefile.NewMem()}
	p := &pager{backing: backing, pool: pagefile.NewPool(failurePool)}
	t.Cleanup(func() { p.Close() })
	ids := make([]pagefile.PageID, failurePool+1)
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
	var cold []pagefile.PageID
	for _, id := range ids {
		if resident(t, p, id) == nil {
			cold = append(cold, id)
		}
	}
	if len(p.pool.Frames()) != failurePool || len(cold) != 1 {
		t.Fatalf("%d pages resident and %v cold, want a full pool of %d and one cold page", len(p.pool.Frames()), cold, failurePool)
	}
	return p, backing, cold[0]
}

// resident returns page id's frame from the pool's ring, nil when it is
// not there. A page missing from the ring must be missing from the pool's
// map too; a resident page is not looked up there, since a lookup is a pin
// and would set its reference bit.
func resident(t *testing.T, p *pager, id pagefile.PageID) *pagefile.Frame {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.IndexFunc(p.pool.Frames(), func(f *pagefile.Frame) bool { return f.ID == id }); i >= 0 {
		return p.pool.Frames()[i]
	}
	if f := p.pool.Pin(id); f != nil {
		p.pool.Unpin(f, false)
		t.Errorf("page %d is mapped but not in the ring", id)
	}
	return nil
}

// TestFailedFaultLeavesPagerWhole fails a fault into a full pool. The error
// wraps the backing's and names the page, no fault is counted, and the page
// is nowhere in the pool: once the backing heals, the same page faults in,
// counting exactly one fault.
func TestFailedFaultLeavesPagerWhole(t *testing.T) {
	p, backing, cold := fullPager(t)
	faults := p.Stats().Faults
	backing.readFail, backing.failRead = cold, true
	if _, err := p.Pin(cold, pagefile.ModeRead); !errors.Is(err, errInjected) {
		t.Fatalf("Pin of failing page = %v, want the backing's error", err)
	} else if want := fmt.Sprintf("page %d", cold); !strings.Contains(err.Error(), want) {
		t.Errorf("Pin error %q does not name %q", err, want)
	}
	if got := p.Stats().Faults; got != faults {
		t.Errorf("failed fault counted: Faults %d -> %d", faults, got)
	}
	if resident(t, p, cold) != nil {
		t.Errorf("page %d is in the pool after its fault failed", cold)
	}

	f, err := p.Pin(cold, pagefile.ModeRead)
	if err != nil {
		t.Fatalf("Pin after the backing healed: %v", err)
	}
	p.Unpin(f, false)
	if got := p.Stats().Faults; got != faults+1 {
		t.Errorf("Faults %d -> %d over the healed Pin, want exactly one more", faults, got)
	}
	if resident(t, p, cold) == nil {
		t.Errorf("page %d is not in the pool after it faulted in", cold)
	}
}

// TestFailedWriteBackKeepsVictim dirties every resident page, so the fault
// of the cold page must write its victim back first, and fails that write.
// Pin names the victim, which stays resident and dirty, and no page write
// is counted until the healed retry writes the same victim back.
func TestFailedWriteBackKeepsVictim(t *testing.T) {
	p, backing, cold := fullPager(t)
	for _, f := range slices.Clone(p.pool.Frames()) {
		if _, err := p.Pin(f.ID, pagefile.ModeWrite); err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, true)
	}
	writes := p.Stats().PageWrites
	backing.failWrite = true
	_, err := p.Pin(cold, pagefile.ModeRead)
	victim := backing.writeFailed
	if !errors.Is(err, errInjected) {
		t.Fatalf("Pin over a failing write-back = %v, want the backing's error", err)
	} else if want := fmt.Sprintf("page %d", victim); !strings.Contains(err.Error(), want) {
		t.Errorf("Pin error %q does not name the victim, %q", err, want)
	}
	if f := resident(t, p, victim); f == nil || !f.Dirty {
		t.Errorf("victim page %d after its failed write-back: frame %v, want resident and dirty", victim, f)
	}
	if resident(t, p, cold) != nil {
		t.Errorf("page %d is in the pool although its fault failed", cold)
	}
	if got := p.Stats().PageWrites; got != writes {
		t.Errorf("failed write-back counted: PageWrites %d -> %d", writes, got)
	}

	f, err := p.Pin(cold, pagefile.ModeRead)
	if err != nil {
		t.Fatalf("Pin after the backing healed: %v", err)
	}
	p.Unpin(f, false)
	if got := p.Stats().PageWrites; got != writes+1 {
		t.Errorf("PageWrites %d -> %d over the healed Pin, want the victim's one write-back", writes, got)
	}
	if resident(t, p, victim) != nil {
		t.Errorf("victim page %d is still resident after the healed fault took it over", victim)
	}
}
