package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"labflow/internal/storage/storagetest"
)

// filled returns a page whose every byte is b.
func filled(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// wantPage fails t unless page id of b reads back as want.
func wantPage(t *testing.T, b Backing, id PageID, want []byte) {
	t.Helper()
	got := filled(0xEE)
	if err := b.ReadPage(id, got); err != nil {
		t.Fatalf("ReadPage(%d): %v", id, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page %d reads %#x..., want %#x...", id, got[:4], want[:4])
	}
}

func TestFileBackingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NumPages() != 0 {
		t.Fatalf("fresh backing pages = %d", b.NumPages())
	}
	id0, err := b.Grow()
	if err != nil || id0 != 0 {
		t.Fatalf("Grow = %d, %v", id0, err)
	}
	id1, _ := b.Grow()
	if id1 != 1 || b.NumPages() != 2 || b.SizeBytes() != 2*PageSize {
		t.Fatalf("after grows: %d pages, %d bytes", b.NumPages(), b.SizeBytes())
	}

	// Grown-but-unwritten pages read as zeros.
	buf := make([]byte, PageSize)
	buf[0] = 0xEE
	if err := b.ReadPage(id1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("unwritten page should read zero-filled")
	}

	want := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := b.WritePage(id1, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := b.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("page contents corrupted")
	}
	// Page 0 written after page 1: sparse region still reads as zeros.
	if err := b.ReadPage(id0, got); err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c != 0 {
			t.Fatal("page 0 should still be zeros")
		}
	}

	// Out-of-range access is an error.
	if err := b.ReadPage(99, got); err == nil {
		t.Error("read beyond end should fail")
	}
	if err := b.WritePage(99, got); err == nil {
		t.Error("write beyond end should fail")
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFileRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	if err := os.WriteFile(path, make([]byte, PageSize+100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("a file that is not a whole number of pages should be rejected")
	}
}

func TestMemBackingBounds(t *testing.T) {
	b := NewMem()
	buf := make([]byte, PageSize)
	if err := b.ReadPage(0, buf); err == nil {
		t.Error("read of empty backing should fail")
	}
	if err := b.WritePage(0, buf); err == nil {
		t.Error("write of empty backing should fail")
	}
	id, err := b.Grow()
	if err != nil || id != 0 {
		t.Fatal(err)
	}
	// Unwritten grown page reads zeros.
	buf[7] = 9
	if err := b.ReadPage(0, buf); err != nil || buf[7] != 0 {
		t.Fatalf("unwritten mem page: %v, byte=%d", err, buf[7])
	}
	if b.Sync() != nil || b.Close() != nil {
		t.Error("mem backing sync/close should be no-ops")
	}
}

// TestFileBackingUnwrittenPagesReadZero grows a backing well past the one
// page it writes: every other page — a hole before the written page, and
// pages past the end of the file — reads as zeros over a dirty buffer, and
// reading them leaves the written page as it was.
func TestFileBackingUnwrittenPagesReadZero(t *testing.T) {
	b, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for range 6 {
		if _, err := b.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WritePage(2, filled(0x5A)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []PageID{0, 1, 3, 4, 5} {
		wantPage(t, b, id, make([]byte, PageSize))
	}
	wantPage(t, b, 2, filled(0x5A))
}

// TestFileBackingSeesOtherWriters writes one file through two backings: a
// page rewritten through either reads back new through the other, including
// a page the other backing grew but the file did not yet hold when it last
// looked.
func TestFileBackingSeesOtherWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	a, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for range 3 {
		a.Grow()
	}
	if err := a.WritePage(0, filled(1)); err != nil {
		t.Fatal(err)
	}
	wantPage(t, a, 0, filled(1))
	wantPage(t, a, 2, make([]byte, PageSize))

	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NumPages() != 1 {
		t.Fatalf("second backing sees %d pages, want the 1 the file holds", b.NumPages())
	}
	wantPage(t, b, 0, filled(1))
	if err := b.WritePage(0, filled(2)); err != nil {
		t.Fatal(err)
	}
	wantPage(t, a, 0, filled(2))
	b.Grow()
	b.Grow()
	if err := b.WritePage(2, filled(3)); err != nil {
		t.Fatal(err)
	}
	wantPage(t, a, 2, filled(3))
	wantPage(t, a, 1, make([]byte, PageSize))
	if err := a.WritePage(1, filled(4)); err != nil {
		t.Fatal(err)
	}
	wantPage(t, b, 1, filled(4))
}

// TestFileBackingReopen reopens a file both after a Close and while the
// backing that wrote it is still open and was never synced or closed, as
// after an unclean stop: each reopen counts the pages the file holds and
// reads back every page written.
func TestFileBackingReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		b.Grow()
		if err := b.WritePage(PageID(i), filled(byte(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	wantPage(t, b, 4, filled(14))
	b.Grow() // grown, never written: the file does not hold it
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 5 {
		t.Fatalf("reopened backing has %d pages, want 5", r.NumPages())
	}
	for i := range 5 {
		wantPage(t, r, PageID(i), filled(byte(10+i)))
	}
	r.Grow()
	if err := r.WritePage(5, filled(15)); err != nil {
		t.Fatal(err)
	}

	again, err := OpenFile(path) // r is left open, unsynced
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.NumPages() != 6 {
		t.Fatalf("reopen beside a live backing has %d pages, want 6", again.NumPages())
	}
	for i := range 6 {
		wantPage(t, again, PageID(i), filled(byte(10+i)))
	}
	r.Close()
}

// TestFileBackingAfterClose reads and writes a closed backing, mapped and
// not: both are refused with os.ErrClosed rather than touching the mapping
// Close released.
func TestFileBackingAfterClose(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		b, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
		if err != nil {
			t.Fatal(err)
		}
		b.Grow()
		if err := b.WritePage(0, filled(7)); err != nil {
			t.Fatal(err)
		}
		if mapped {
			wantPage(t, b, 0, filled(7))
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		if err := b.ReadPage(0, buf); !errors.Is(err, os.ErrClosed) {
			t.Errorf("mapped=%v: ReadPage after Close = %v, want os.ErrClosed", mapped, err)
		}
		if err := b.WritePage(0, buf); !errors.Is(err, os.ErrClosed) {
			t.Errorf("mapped=%v: WritePage after Close = %v, want os.ErrClosed", mapped, err)
		}
	}
}

// TestFileReadAllocatesNothing reads written pages of a file backing over
// and over: serving a fault is a copy into the caller's buffer and
// allocates nothing, on the mapped path and the pread path alike.
func TestFileReadAllocatesNothing(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := range 4 {
		b.Grow()
		if err := b.WritePage(PageID(i), filled(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	if n := testing.AllocsPerRun(100, func() {
		for i := range 4 {
			if err := b.ReadPage(PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("four page reads allocate %v times", n)
	}
}
