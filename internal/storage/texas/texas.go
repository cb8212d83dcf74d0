// Package texas implements the Texas-style storage manager: a persistent
// heap in which pages become resident the first time they are touched (the
// analog of Texas's pointer swizzling at page-fault time [Singhal, Kakkad,
// Wilson 1992]), with dirty pages written back at commit, no concurrency
// control, and direct access to the database file.
//
// Two of the paper's five server versions come from this package:
//
//   - "Texas":    allocation-order placement (AllocateNear degrades to a
//     plain Allocate, as with a storage manager that gives the client no
//     placement control);
//   - "Texas+TC": the same manager with client-directed object clustering
//     enabled, the paper's "additional object clustering implemented in
//     client code".
//
// The original Texas relied on operating-system virtual memory for
// residency. MaxResidentPages simulates that memory budget: beyond it, pages
// are evicted with a CLOCK policy (dirty pages are written back first), so a
// workload with poor locality of reference pays repeated faults — the effect
// the paper's later intervals expose.
package texas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
)

// ErrTornStore is returned by Open when the backing file carries the dirty
// marker of a store that was mutated but never cleanly closed. The manager
// has no log, so a torn store cannot be repaired — only detected.
var ErrTornStore = errors.New("texas: store not closed cleanly (torn)")

// The dirty marker lives in the superblock bytes the page layout leaves
// free (readSuper ignores everything past offset 104, writeSuper zeroes
// it). It is forced to disk before the first page write of a session and
// cleared after the final flush and sync of a clean Close, so its presence
// on disk means page writes may have happened that no later sync bracketed.
const (
	dirtyMarkerOff   = 104
	dirtyMarkerMagic = 0xD1247E57D1247E57
)

// Options configures Open.
type Options struct {
	// Path is the database file. Empty means a volatile in-memory backing
	// (used by tests; distinct from the "-mm" managers, which bypass pages
	// entirely).
	Path string
	// Backing, if non-nil, is used instead of opening Path — the hook the
	// fault-injection harness threads its wrapped media through. A
	// supplied backing is treated as persistent (torn-store detection
	// applies).
	Backing pagefile.Backing
	// MaxResidentPages bounds residency; 0 means unbounded, as with the
	// original Texas running entirely inside real memory.
	MaxResidentPages int
	// Clustering enables client-directed placement (the +TC version).
	Clustering bool
}

// Open opens or creates a Texas-style store. A torn store (mutated but
// never cleanly closed) is refused with ErrTornStore.
func Open(opts Options) (storage.Manager, error) {
	backing := opts.Backing
	persistent := backing != nil || opts.Path != ""
	if backing == nil {
		if opts.Path == "" {
			backing = pagefile.NewMem()
		} else {
			fb, err := pagefile.OpenFile(opts.Path)
			if err != nil {
				return nil, fmt.Errorf("texas: %w", err)
			}
			backing = fb
		}
	}
	// A persistent store that was mutated but never cleanly closed is torn:
	// with no log there is nothing to replay, so refuse loudly rather than
	// serve whatever subset of the dirty pages reached the disk.
	var page []byte
	if persistent {
		page = make([]byte, pagefile.PageSize)
	}
	if persistent && backing.NumPages() > 0 {
		if err := backing.ReadPage(0, page); err != nil {
			backing.Close()
			return nil, fmt.Errorf("texas: read superblock: %w", err)
		}
		if binary.LittleEndian.Uint64(page[dirtyMarkerOff:]) == dirtyMarkerMagic {
			backing.Close()
			return nil, fmt.Errorf("texas: %w", ErrTornStore)
		}
	}
	name := "Texas"
	if opts.Clustering {
		name = "Texas+TC"
	}
	pager := &pager{
		backing:    backing,
		pool:       pagefile.NewPool(opts.MaxResidentPages),
		persistent: persistent,
		page:       page,
	}
	store, err := pagefile.New(name, pager, heapSlack)
	if err != nil {
		pager.Close()
		return nil, fmt.Errorf("texas: %w", err)
	}
	return &manager{Store: store, clustering: opts.Clustering}, nil
}

// heapSlack models the persistent heap's allocator: a per-object header plus
// power-of-two size classes. This is why the Texas databases in the paper's
// table are roughly 1.5x the size of the ObjectStore database for the same
// data — ObjectStore packs records into pages, a heap rounds them up.
func heapSlack(n int) int {
	n += 8 // allocation header
	if n <= 16 {
		return 16
	}
	c := 16
	for c < n && c < 4096 {
		c <<= 1
	}
	if c >= n {
		return c
	}
	// Past 4 KiB, round to 512-byte boundaries.
	return (n + 511) &^ 511
}

// manager wires the clustering switch in front of pagefile.Store.
type manager struct {
	*pagefile.Store
	clustering bool
}

// AllocateCluster starts a physical cluster only in the +TC configuration;
// plain Texas has no placement control.
func (m *manager) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	if !m.clustering {
		return m.Store.Allocate(seg, data)
	}
	return m.Store.AllocateCluster(seg, data)
}

// AllocateNear honours the clustering hint only in the +TC configuration;
// plain Texas places records in allocation order exactly like Allocate.
func (m *manager) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	if !m.clustering {
		// Validate the anchor even though its placement is ignored, so the
		// two configurations fail identically on bad references.
		if _, err := m.Store.Read(near); err != nil {
			return storage.NilOID, err
		}
		return m.Store.Allocate(near.Segment(), data)
	}
	return m.Store.AllocateNear(near, data)
}

// pager implements pagefile.Pager with fault-on-first-touch residency.
type pager struct {
	mu         sync.Mutex
	backing    pagefile.Backing
	pool       *pagefile.Pool // residency; MaxResidentPages is its capacity
	persistent bool           // torn-store marker protocol applies
	marked     bool           // dirty marker is on disk
	page       []byte         // a persistent store's superblock scratch: stamped images, marker read-modify-writes
	closed     bool
}

// writePageLocked is the single path to the backing for page images. For a
// persistent store it first forces the dirty marker to disk — before any
// page write can land, the file is branded not-cleanly-closed — and stamps
// the marker into outgoing superblock images (the store layer zeroes those
// bytes, and only a clean Close may clear the brand).
func (p *pager) writePageLocked(id pagefile.PageID, data []byte) error {
	if p.persistent && !p.marked {
		if err := p.setMarkerLocked(); err != nil {
			return fmt.Errorf("texas: set dirty marker: %w", err)
		}
	}
	if p.persistent && id == 0 {
		copy(p.page, data)
		binary.LittleEndian.PutUint64(p.page[dirtyMarkerOff:], dirtyMarkerMagic)
		return p.backing.WritePage(id, p.page)
	}
	return p.backing.WritePage(id, data)
}

// setMarkerLocked durably brands the superblock dirty: read-modify-write of
// page 0 followed by a sync, so the marker cannot be reordered after the
// page writes it guards.
func (p *pager) setMarkerLocked() error {
	if err := p.backing.ReadPage(0, p.page); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p.page[dirtyMarkerOff:], dirtyMarkerMagic)
	if err := p.backing.WritePage(0, p.page); err != nil {
		return err
	}
	if err := p.backing.Sync(); err != nil {
		return err
	}
	p.marked = true
	return nil
}

// clearMarkerLocked removes the brand after everything else is flushed and
// synced: read-modify-write of page 0, then a final sync.
func (p *pager) clearMarkerLocked() error {
	if err := p.backing.ReadPage(0, p.page); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p.page[dirtyMarkerOff:], 0)
	if err := p.backing.WritePage(0, p.page); err != nil {
		return err
	}
	if err := p.backing.Sync(); err != nil {
		return err
	}
	p.marked = false
	return nil
}

func (p *pager) Pin(id pagefile.PageID, mode pagefile.Mode) (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	if f := p.pool.Pin(id); f != nil {
		return f, nil
	}
	f, err := p.newFrameLocked(id)
	if err != nil {
		return nil, err
	}
	if err := p.backing.ReadPage(id, f.Data); err != nil {
		return nil, fmt.Errorf("texas: fault page %d: %w", id, err)
	}
	p.pool.Stats.Faults++
	p.pool.Add(f)
	return f, nil
}

// newFrameLocked readies a frame for page id, pinned once and referenced,
// whose buffer the caller fills. When residency is at its limit it takes
// over CLOCK's victim — the frame and its buffer — so a fault allocates
// nothing; otherwise it is a new frame on a new buffer. The pool steals:
// a dirty victim is written back first, simulating OS page-out, and one
// whose write-back fails stays resident and dirty.
func (p *pager) newFrameLocked(id pagefile.PageID) (*pagefile.Frame, error) {
	v := p.pool.Victim(nil)
	if v == nil {
		return pagefile.NewFrame(id, make([]byte, pagefile.PageSize)), nil
	}
	if v.Dirty {
		if err := p.writePageLocked(v.ID, v.Data); err != nil {
			return nil, fmt.Errorf("texas: evict write-back page %d: %w", v.ID, err)
		}
		p.pool.Stats.PageWrites++
		v.Dirty = false
	}
	return p.pool.Take(v, id), nil
}

func (p *pager) Unpin(f *pagefile.Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pool.Unpin(f, dirty)
}

func (p *pager) AllocPage() (*pagefile.Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, pagefile.ErrPagerClosed
	}
	f, err := p.newFrameLocked(0)
	if err != nil {
		return nil, err
	}
	id, err := p.backing.Grow()
	if err != nil {
		return nil, fmt.Errorf("texas: grow: %w", err)
	}
	clear(f.Data)
	f.ID = id
	f.Dirty = true
	p.pool.Add(f)
	return f, nil
}

func (p *pager) Begin() error { return nil }

// Commit writes every dirty resident page back to the database file before
// it returns, so there is nothing left for a durable wait to do. Like the
// original Texas, there is no log: a crash mid-commit is not recoverable in
// place — Open detects it and refuses the store — which is one of the
// usability observations the paper makes.
func (p *pager) Commit() (func() error, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return nil, p.flushLocked()
}

func (p *pager) flushLocked() error {
	for _, f := range p.pool.Frames() {
		if !f.Dirty {
			continue
		}
		if err := p.writePageLocked(f.ID, f.Data); err != nil {
			return fmt.Errorf("texas: commit write page %d: %w", f.ID, err)
		}
		p.pool.Stats.PageWrites++
		f.Dirty = false
	}
	return nil
}

func (p *pager) Stats() pagefile.PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pool.Stats
}

func (p *pager) SizeBytes() uint64 { return p.backing.SizeBytes() }

// Close flushes, syncs, and clears the dirty marker — in that order, so the
// marker only leaves the disk once every page write is bracketed by a sync.
// The backing is closed unconditionally: a failed flush must not leak a
// descriptor (and leaves the marker in place, which is exactly the verdict a
// later Open should see).
func (p *pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var errs []error
	if err := p.flushLocked(); err != nil {
		errs = append(errs, err)
	} else if err := p.backing.Sync(); err != nil {
		errs = append(errs, err)
	} else if p.marked {
		if err := p.clearMarkerLocked(); err != nil {
			errs = append(errs, fmt.Errorf("texas: clear dirty marker: %w", err))
		}
	}
	if err := p.backing.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
