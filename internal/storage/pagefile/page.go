package pagefile

import (
	"encoding/binary"
	"fmt"
)

// Slotted data page layout.
//
//	offset  size  field
//	0       2     nSlots
//	2       2     heapOff   (lowest used heap byte; heap grows downward from PageSize)
//	4       1     segment
//	5       1     flags     (flagOverflow marks a whole-page overflow extent)
//	6       2     reserved
//	8       ...   slot directory, 6 bytes per slot: off u16, cap u16, len u16
//	...     ...   free space
//	heapOff ...   record heap (grows downward)
//
// A slot with len == slotFree is free; its cap bytes at off remain reserved
// and are reused by later inserts that fit.
//
// Nothing verifies a page read back from disk (there is no page checksum),
// so the accessors check every header and slot field they follow: a corrupt
// page fails with an error naming the slot instead of a slice panic.

const (
	pageHdrSize = 8
	slotSize    = 6
	slotFree    = 0xFFFF

	flagOverflow = 1

	// MaxInline is the largest record stored directly in a slotted page.
	// Larger records go through the overflow-extent path in Store.
	MaxInline = PageSize - pageHdrSize - slotSize

	// overflowCap is the usable payload of one overflow extent page.
	overflowCap = PageSize - pageHdrSize
)

type slot struct {
	off, cap, length uint16
}

func pageNSlots(p []byte) int  { return int(binary.LittleEndian.Uint16(p[0:2])) }
func pageHeapOff(p []byte) int { return int(binary.LittleEndian.Uint16(p[2:4])) }
func pageSeg(p []byte) uint8   { return p[4] }
func pageFlags(p []byte) uint8 { return p[5] }

func setPageNSlots(p []byte, n int)  { binary.LittleEndian.PutUint16(p[0:2], uint16(n)) }
func setPageHeapOff(p []byte, v int) { binary.LittleEndian.PutUint16(p[2:4], uint16(v)) }

// initPage formats a zeroed buffer as an empty slotted page.
func initPage(p []byte, seg uint8, flags uint8) {
	clear(p[:PageSize])
	setPageNSlots(p, 0)
	// heapOff of 0 encodes PageSize (an empty heap) since PageSize does not
	// fit in 16 bits.
	setPageHeapOff(p, 0)
	p[4] = seg
	p[5] = flags
}

// slotAt returns slot i after checking that the slot directory fits in the
// page and that the slot's reserved bytes lie between the directory and the
// end of the page, holding no more than the slot's capacity.
func slotAt(p []byte, i int) (slot, error) {
	n := pageNSlots(p)
	if i >= n {
		return slot{}, fmt.Errorf("pagefile: slot %d out of range (%d slots)", i, n)
	}
	dirEnd := pageHdrSize + n*slotSize
	if dirEnd > PageSize {
		return slot{}, fmt.Errorf("pagefile: slot %d: directory of %d slots overruns the page", i, n)
	}
	s := getSlot(p, i)
	if int(s.off) < dirEnd || int(s.off)+int(s.cap) > PageSize || s.length != slotFree && s.length > s.cap {
		return slot{}, fmt.Errorf("pagefile: slot %d corrupt (off %d, cap %d, len %d)", i, s.off, s.cap, s.length)
	}
	return s, nil
}

func heapStart(p []byte) int {
	h := pageHeapOff(p)
	if h == 0 {
		return PageSize
	}
	return h
}

func getSlot(p []byte, i int) slot {
	base := pageHdrSize + i*slotSize
	return slot{
		off:    binary.LittleEndian.Uint16(p[base:]),
		cap:    binary.LittleEndian.Uint16(p[base+2:]),
		length: binary.LittleEndian.Uint16(p[base+4:]),
	}
}

func putSlot(p []byte, i int, s slot) {
	base := pageHdrSize + i*slotSize
	binary.LittleEndian.PutUint16(p[base:], s.off)
	binary.LittleEndian.PutUint16(p[base+2:], s.cap)
	binary.LittleEndian.PutUint16(p[base+4:], s.length)
}

// pageFreeSpace returns the bytes available for a brand-new slot+record.
func pageFreeSpace(p []byte) int {
	low := pageHdrSize + pageNSlots(p)*slotSize
	return heapStart(p) - low
}

// pageInsert places data in the page, reserving capacity bytes of heap for
// the record (capacity >= len(data); allocator size classes reserve slack
// here). It reuses a free slot whose reserved capacity fits, or carves a new
// slot, returning the slot number and whether the insert succeeded.
func pageInsert(p []byte, data []byte, capacity int) (int, bool, error) {
	n := len(data)
	if capacity < n {
		capacity = n
	}
	if capacity > MaxInline {
		if n > MaxInline {
			return 0, false, nil
		}
		capacity = MaxInline
	}
	nSlots := pageNSlots(p)
	// First fit over freed slots: their heap space is already reserved.
	for i := 0; i < nSlots; i++ {
		s, err := slotAt(p, i)
		if err != nil {
			return 0, false, err
		}
		if s.length == slotFree && int(s.cap) >= n {
			copy(p[s.off:int(s.off)+n], data)
			s.length = uint16(n)
			putSlot(p, i, s)
			return i, true, nil
		}
	}
	if h := heapStart(p); h > PageSize {
		return 0, false, fmt.Errorf("pagefile: slot %d: heap offset %d beyond the page", nSlots, h)
	}
	if pageFreeSpace(p) < slotSize+capacity {
		return 0, false, nil
	}
	newHeap := heapStart(p) - capacity
	copy(p[newHeap:newHeap+n], data)
	putSlot(p, nSlots, slot{off: uint16(newHeap), cap: uint16(capacity), length: uint16(n)})
	setPageNSlots(p, nSlots+1)
	setPageHeapOff(p, newHeap)
	return nSlots, true, nil
}

// pageRead returns the record in slot i. The slice aliases the page buffer.
func pageRead(p []byte, i int) ([]byte, error) {
	s, err := slotAt(p, i)
	if err != nil {
		return nil, err
	}
	if s.length == slotFree {
		return nil, fmt.Errorf("pagefile: slot %d is free", i)
	}
	return p[s.off : int(s.off)+int(s.length)], nil
}

// pageUpdate overwrites slot i in place if the reserved capacity allows,
// reporting whether it did.
func pageUpdate(p []byte, i int, data []byte) (bool, error) {
	s, err := slotAt(p, i)
	if err != nil {
		return false, err
	}
	if s.length == slotFree {
		return false, fmt.Errorf("pagefile: update of free slot %d", i)
	}
	if len(data) > int(s.cap) {
		return false, nil
	}
	copy(p[s.off:int(s.off)+len(data)], data)
	s.length = uint16(len(data))
	putSlot(p, i, s)
	return true, nil
}

// pageFreeSlot marks slot i free, keeping its capacity reserved for reuse.
func pageFreeSlot(p []byte, i int) error {
	s, err := slotAt(p, i)
	if err != nil {
		return err
	}
	if s.length == slotFree {
		return fmt.Errorf("pagefile: double free of slot %d", i)
	}
	s.length = slotFree
	putSlot(p, i, s)
	return nil
}
