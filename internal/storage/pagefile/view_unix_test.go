//go:build unix

package pagefile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFileBackingRemapsPastReserve shrinks the first mapping to two pages
// and grows a backing to eleven. A grown page read before its write is
// zeros and maps nothing. Every written page reads back, through mappings
// that doubled to cover the file, and so does page 0 after each remap.
// Each write extends the bytes the backing knows the file holds, so no
// read of a written page needs a stat.
func TestFileBackingRemapsPastReserve(t *testing.T) {
	setMapReserve(t, 2*PageSize)
	b, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Grow()
	b.Grow()
	wantPage(t, b, 1, make([]byte, PageSize))
	if b.view.mem != nil {
		t.Fatal("reading a page the file does not hold mapped the file")
	}
	for i := range 11 {
		if i > 1 {
			b.Grow()
		}
		if err := b.WritePage(PageID(i), filled(byte(i+1))); err != nil {
			t.Fatal(err)
		}
		if want := int64(i+1) * PageSize; b.view.end != want {
			t.Fatalf("after writing page %d the backing knows of %d bytes, want %d", i, b.view.end, want)
		}
		wantPage(t, b, PageID(i), filled(byte(i+1)))
		wantPage(t, b, 0, filled(1))
	}
	if got := len(b.view.mem); got != 16*PageSize {
		t.Fatalf("mapping is %d bytes after growing to 11 pages, want 16 pages", got)
	}
	for i := range 11 {
		wantPage(t, b, PageID(i), filled(byte(i+1)))
	}
}

// TestFileBackingTruncatedUnderMapping truncates the file behind a mapped
// backing's back: a read of a page the backing knew the file held faults
// in the mapping, and that comes back as an error, not a crashed process.
func TestFileBackingTruncatedUnderMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := range 4 {
		b.Grow()
		if err := b.WritePage(PageID(i), filled(9)); err != nil {
			t.Fatal(err)
		}
	}
	wantPage(t, b, 0, filled(9))
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadPage(3, make([]byte, PageSize)); err == nil {
		t.Fatal("read of a page truncated away under the mapping succeeded")
	}
}
