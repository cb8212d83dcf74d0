package pagefile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"labflow/internal/storage"
)

// corruptPage returns an empty slotted page whose header claims nSlots
// slots, with slot 0 (when there is one) set to s.
func corruptPage(nSlots int, s slot) []byte {
	p := make([]byte, PageSize)
	initPage(p, 1, 0)
	setPageNSlots(p, nSlots)
	if nSlots > 0 {
		putSlot(p, 0, s)
	}
	return p
}

// TestCorruptSlottedPage feeds each page accessor a page whose header or
// slot fields point outside the page. Nothing verifies a page faulted in
// from disk, so each must return an error naming the slot, not panic.
func TestCorruptSlottedPage(t *testing.T) {
	overrun := slot{off: PageSize - 2, cap: 100, length: 100}
	cases := []struct {
		name string
		op   func() error
	}{
		{"read past a directory of 2000 slots", func() error {
			_, err := pageRead(corruptPage(2000, slot{}), 1500)
			return err
		}},
		{"read a record that runs off the page", func() error {
			_, err := pageRead(corruptPage(1, overrun), 0)
			return err
		}},
		{"read a record longer than its capacity", func() error {
			_, err := pageRead(corruptPage(1, slot{off: 4000, cap: 10, length: 100}), 0)
			return err
		}},
		{"update into capacity that runs off the page", func() error {
			_, err := pageUpdate(corruptPage(1, slot{off: PageSize - 2, cap: 100, length: 1}), 0, make([]byte, 50))
			return err
		}},
		{"free past a directory of 2000 slots", func() error {
			return pageFreeSlot(corruptPage(2000, slot{}), 1500)
		}},
		{"insert into a free slot that runs off the page", func() error {
			_, _, err := pageInsert(corruptPage(1, slot{off: PageSize - 2, cap: 100, length: slotFree}), make([]byte, 10), 0)
			return err
		}},
		{"insert below a heap offset beyond the page", func() error {
			p := corruptPage(0, slot{})
			setPageHeapOff(p, 0xFFFF)
			_, _, err := pageInsert(p, make([]byte, 10), 0)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.op()
		if err == nil || !strings.Contains(err.Error(), "slot") {
			t.Errorf("%s: err = %v, want an error naming the slot", tc.name, err)
		}
	}
}

// TestStoreSurfacesCorruptPage corrupts the slot behind a committed record
// and checks that Read, Write and Free report it with the page number.
func TestStoreSurfacesCorruptPage(t *testing.T) {
	mp := newMemPager()
	s, err := New("corrupt", mp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := s.Allocate(storage.SegCatalog, []byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e, err := s.loadEntry(oid)
	if err != nil {
		t.Fatal(err)
	}
	putSlot(mp.resident[entryPage(e)].Data, entrySlot(e), slot{off: PageSize - 2, cap: 100, length: 6})
	want := fmt.Sprintf("page %d", entryPage(e))

	if _, err := s.Read(oid); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Read = %v, want an error naming %s", err, want)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(oid, []byte("longer record")); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Write = %v, want an error naming %s", err, want)
	}
	if err := s.Free(oid); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Free = %v, want an error naming %s", err, want)
	}
}

// FuzzSlottedPage drives the four page accessors over arbitrary page bytes
// (padded or cut to PageSize), an arbitrary slot number and record. None
// may panic, and whatever an accessor reports as stored must read back.
func FuzzSlottedPage(f *testing.F) {
	valid := make([]byte, PageSize)
	initPage(valid, 2, 0)
	records := [][]byte{[]byte("first"), bytes.Repeat([]byte{0xA5}, 300), nil, []byte("last")}
	for i, rec := range records {
		slot, ok, err := pageInsert(valid, rec, len(rec)+8)
		if err != nil || !ok || slot != i {
			f.Fatalf("seed insert %d: slot %d ok %v err %v", i, slot, ok, err)
		}
	}
	for i, rec := range records {
		if got, err := pageRead(valid, i); err != nil || !bytes.Equal(got, rec) {
			f.Fatalf("seed read %d = %q, %v; want %q", i, got, err, rec)
		}
	}
	if err := pageFreeSlot(valid, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(0), []byte("update"))
	f.Add(valid, uint16(1), []byte("reuse"))
	f.Add(corruptPage(2000, slot{}), uint16(1500), []byte("x"))
	f.Add(corruptPage(1, slot{off: PageSize - 2, cap: 100, length: 100}), uint16(0), []byte("y"))
	f.Add(corruptPage(1, slot{off: PageSize - 2, cap: 100, length: slotFree}), uint16(0), []byte("ten bytes!"))

	f.Fuzz(func(t *testing.T, raw []byte, slotNum uint16, rec []byte) {
		p := make([]byte, PageSize)
		copy(p, raw)
		i := int(slotNum)
		if _, err := pageRead(p, i); err != nil && !strings.Contains(err.Error(), "slot") {
			t.Fatalf("pageRead error does not name the slot: %v", err)
		}
		if ok, err := pageUpdate(p, i, rec); err == nil && ok {
			if got, err := pageRead(p, i); err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("read after update = %q, %v; want %q", got, err, rec)
			}
		}
		_ = pageFreeSlot(p, i)
		if at, ok, err := pageInsert(p, rec, len(rec)); err == nil && ok {
			if got, err := pageRead(p, at); err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("read after insert = %q, %v; want %q", got, err, rec)
			}
		}
	})
}
