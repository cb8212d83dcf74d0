// Package pagefile implements the page-structured persistent substrate that
// both the ostore and texas storage managers are built on: fixed-size pages
// in a backing file, slotted data pages, per-segment object tables with
// stable logical OIDs, and large-record overflow chains.
//
// The split of responsibilities mirrors the paper's setting. What differs
// between ObjectStore and Texas is *how pages become resident and when they
// are written back* (serialized miss path + bounded pool + log vs.
// fault-on-first-touch); what they share is an object heap on pages. The
// Pager interface captures the former, and Store implements the latter
// generically over any Pager.
package pagefile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageSize is the size of every page, in bytes. 8 KiB matches the page
// grain of the systems the paper measures.
const PageSize = 8192

// PageID numbers pages within a backing store. Page 0 is the superblock.
type PageID uint32

// Backing is a flat array of pages on some medium.
//
// Implementations must tolerate reads of pages that were grown but never
// written, returning zero-filled contents.
type Backing interface {
	// ReadPage fills buf (len PageSize) with page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as page id.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the current page count (high-water mark).
	NumPages() uint32
	// Grow extends the store by one zeroed page, returning its id.
	Grow() (PageID, error)
	// SizeBytes returns the current footprint in bytes.
	SizeBytes() uint64
	// Sync flushes to stable storage where that is meaningful.
	Sync() error
	// Close releases resources.
	Close() error
}

// FileBacking stores pages in an operating-system file.
type FileBacking struct {
	mu    sync.Mutex
	f     *os.File
	pages uint32
}

// OpenFile opens (creating if necessary) a file backing at path. An existing
// file must have a whole number of pages.
func OpenFile(path string) (*FileBacking, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open backing: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: stat backing: %w", err)
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s: size %d is not a whole number of pages", path, info.Size())
	}
	return &FileBacking{f: f, pages: uint32(info.Size() / PageSize)}, nil
}

// ReadPage implements Backing.
func (b *FileBacking) ReadPage(id PageID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if uint32(id) >= b.pages {
		return fmt.Errorf("pagefile: read page %d beyond end (%d pages)", id, b.pages)
	}
	n, err := b.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err == io.EOF && n == 0 {
		// Grown but never written: zero-filled.
		clear(buf[:PageSize])
		return nil
	}
	if err != nil && !(err == io.EOF && n == PageSize) {
		if err == io.EOF {
			// Short page at end of file: remainder is zeros.
			clear(buf[n:PageSize])
			return nil
		}
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Backing.
func (b *FileBacking) WritePage(id PageID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if uint32(id) >= b.pages {
		return fmt.Errorf("pagefile: write page %d beyond end (%d pages)", id, b.pages)
	}
	if _, err := b.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	return nil
}

// NumPages implements Backing.
func (b *FileBacking) NumPages() uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pages
}

// Grow implements Backing. The new page is materialized lazily; reading it
// before any write yields zeros.
func (b *FileBacking) Grow() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := PageID(b.pages)
	b.pages++
	return id, nil
}

// SizeBytes implements Backing.
func (b *FileBacking) SizeBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(b.pages) * PageSize
}

// Sync implements Backing.
func (b *FileBacking) Sync() error { return b.f.Sync() }

// Close implements Backing.
func (b *FileBacking) Close() error { return b.f.Close() }

// MemBacking stores pages in memory. It is used by tests and by persistent
// managers configured for in-memory operation.
type MemBacking struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMem returns an empty in-memory backing.
func NewMem() *MemBacking { return &MemBacking{} }

// ReadPage implements Backing.
func (b *MemBacking) ReadPage(id PageID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(id) >= len(b.pages) {
		return fmt.Errorf("pagefile: read page %d beyond end (%d pages)", id, len(b.pages))
	}
	if b.pages[id] == nil {
		clear(buf[:PageSize])
		return nil
	}
	copy(buf[:PageSize], b.pages[id])
	return nil
}

// WritePage implements Backing.
func (b *MemBacking) WritePage(id PageID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(id) >= len(b.pages) {
		return fmt.Errorf("pagefile: write page %d beyond end (%d pages)", id, len(b.pages))
	}
	if b.pages[id] == nil {
		b.pages[id] = make([]byte, PageSize)
	}
	copy(b.pages[id], buf[:PageSize])
	return nil
}

// NumPages implements Backing.
func (b *MemBacking) NumPages() uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint32(len(b.pages))
}

// Grow implements Backing.
func (b *MemBacking) Grow() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pages = append(b.pages, nil)
	return PageID(len(b.pages) - 1), nil
}

// SizeBytes implements Backing.
func (b *MemBacking) SizeBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(len(b.pages)) * PageSize
}

// Sync implements Backing.
func (b *MemBacking) Sync() error { return nil }

// Close implements Backing.
func (b *MemBacking) Close() error { return nil }

// ErrPagerClosed is returned by pager operations after Close.
var ErrPagerClosed = errors.New("pagefile: pager is closed")
