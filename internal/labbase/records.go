package labbase

import (
	"encoding/binary"
	"fmt"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// This file holds the on-disk codecs for the storage schema (sm_material,
// sm_step, material_set) and LabBase's access structures (history chunks,
// most-recent indexes, class extents, counters).
//
// Access structures that are appended to in place use fixed-width layouts
// pre-sized to their full capacity, so the common append changes the
// record where it lies and never relocates it. Immutable records (steps,
// sets) and rarely-rewritten ones (materials, catalog) use the compact
// varint encoding from package rec.

// --- sm_material -------------------------------------------------------------

type materialRec struct {
	classID      ClassID
	stateID      StateID
	createdAt    int64 // valid time of creation
	name         string
	historyHead  storage.OID // newest history chunk ("involves" list)
	historyCount uint64
	mrIndex      storage.OID // most-recent index record
}

func (m *materialRec) encodeTo(e *rec.Encoder) {
	e.Grow(32 + len(m.name))
	e.Byte(1)
	e.Uint(uint64(m.classID))
	e.Uint(uint64(m.stateID))
	e.Int(m.createdAt)
	e.String(m.name)
	e.Uint(uint64(m.historyHead))
	e.Uint(m.historyCount)
	e.Uint(uint64(m.mrIndex))
}

func (m *materialRec) encode() []byte {
	e := rec.NewEncoder(32 + len(m.name))
	m.encodeTo(e)
	return e.Bytes()
}

func decodeMaterialRec(data []byte) (*materialRec, error) {
	d := rec.NewDecoder(data)
	if v := d.Byte(); v != 1 {
		return nil, fmt.Errorf("labbase: unsupported material record version %d", v)
	}
	m := &materialRec{
		classID:   ClassID(d.Uint()),
		stateID:   StateID(d.Uint()),
		createdAt: d.Int(),
		name:      d.String(),
	}
	m.historyHead = storage.OID(d.Uint())
	m.historyCount = d.Uint()
	m.mrIndex = storage.OID(d.Uint())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("labbase: material record: %w", err)
	}
	return m, nil
}

// readMaterial returns a material record, served from the decode cache when
// possible. The caller receives a private copy and may mutate it freely; the
// cache entry is only refreshed through writeMaterial/allocMaterial. A hit
// is one atomic load; a miss reads and decodes the record and installs it
// unless a writer refreshed the slot meanwhile (cache.go).
func (db *DB) readMaterial(oid storage.OID) (*materialRec, error) {
	if oid.Segment() != storage.SegMaterial {
		return nil, fmt.Errorf("%w: %v", ErrNotMaterial, oid)
	}
	m, err := db.matCache.getOrFill(oid, func() (materialRec, error) {
		data, err := db.sm.Read(oid)
		if err != nil {
			return materialRec{}, err
		}
		m, err := decodeMaterialRec(data)
		if err != nil {
			return materialRec{}, err
		}
		return *m, nil
	})
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// writeMaterial re-encodes a material record in place (through a pooled
// encoder; storage managers copy the bytes before returning) and refreshes
// the decode cache, or invalidates it when the write fails.
func (db *DB) writeMaterial(oid storage.OID, m *materialRec) error {
	e := rec.GetEncoder()
	m.encodeTo(e)
	err := db.sm.Write(oid, e.Bytes())
	rec.PutEncoder(e)
	if err != nil {
		db.matCache.invalidate(oid)
		return err
	}
	db.matCache.put(oid, *m)
	return nil
}

// allocMaterial stores a fresh material record and seeds the decode cache.
func (db *DB) allocMaterial(m *materialRec) (storage.OID, error) {
	e := rec.GetEncoder()
	m.encodeTo(e)
	oid, err := db.sm.Allocate(storage.SegMaterial, e.Bytes())
	rec.PutEncoder(e)
	if err != nil {
		return storage.NilOID, err
	}
	db.matCache.put(oid, *m)
	return oid, nil
}

// --- sm_step -----------------------------------------------------------------

type stepRec struct {
	classID   StepClassID
	version   Version
	validTime int64
	txnTime   int64
	materials []storage.OID
	set       storage.OID // optional material_set processed by this step
	attrIDs   []AttrID
	attrVals  []Value
}

func (s *stepRec) encodeTo(e *rec.Encoder) {
	// Pre-size for the fixed fields, the OID lists and the attribute tags;
	// value payloads (strings, hit lists) grow the buffer as needed and the
	// pooled buffer keeps that capacity for the next step.
	e.Grow(32 + 10*len(s.materials) + 16*len(s.attrIDs))
	e.Byte(1)
	e.Uint(uint64(s.classID))
	e.Uint(uint64(s.version))
	e.Int(s.validTime)
	e.Int(s.txnTime)
	e.Uint(uint64(len(s.materials)))
	for _, m := range s.materials {
		e.Uint(uint64(m))
	}
	e.Uint(uint64(s.set))
	e.Uint(uint64(len(s.attrIDs)))
	for i, a := range s.attrIDs {
		e.Uint(uint64(a))
		s.attrVals[i].encode(e)
	}
}

func (s *stepRec) encode() []byte {
	e := rec.NewEncoder(64)
	s.encodeTo(e)
	return e.Bytes()
}

func decodeStepRec(data []byte) (*stepRec, error) {
	d := rec.NewDecoder(data)
	if v := d.Byte(); v != 1 {
		return nil, fmt.Errorf("labbase: unsupported step record version %d", v)
	}
	s := &stepRec{
		classID:   StepClassID(d.Uint()),
		version:   Version(d.Uint()),
		validTime: d.Int(),
		txnTime:   d.Int(),
	}
	nm := d.Count(1 << 24)
	if d.Err() == nil {
		s.materials = make([]storage.OID, nm)
		for i := range s.materials {
			s.materials[i] = storage.OID(d.Uint())
		}
	}
	s.set = storage.OID(d.Uint())
	na := d.Count(1 << 24)
	if d.Err() == nil {
		s.attrIDs = make([]AttrID, na)
		s.attrVals = make([]Value, na)
		for i := range s.attrIDs {
			s.attrIDs[i] = AttrID(d.Uint())
			s.attrVals[i] = decodeValue(d)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("labbase: step record: %w", err)
	}
	return s, nil
}

// stepAttrValue walks an encoded step record once: it counts the attribute
// values and, unless count is set, decodes the first one tagged id, skipping
// every other without allocating. It makes every check decodeStepRec makes,
// so it fails exactly where decodeStepRec would.
func stepAttrValue(data []byte, id AttrID, count bool) (v Value, found bool, n int, err error) {
	d := rec.NewDecoder(data)
	if v := d.Byte(); v != 1 {
		return Nil(), false, 0, fmt.Errorf("labbase: unsupported step record version %d", v)
	}
	d.Uint() // class
	d.Uint() // version
	d.Int()  // valid time
	d.Int()  // transaction time
	for range d.Count(1 << 24) {
		d.Uint()
	}
	d.Uint() // set
	v = Nil()
	n = d.Count(1 << 24)
	for range n {
		if AttrID(d.Uint()) == id && !found && !count {
			v, found = decodeValue(d), true
		} else {
			skipValue(d)
		}
	}
	if err := d.Finish(); err != nil {
		return Nil(), false, 0, fmt.Errorf("labbase: step record: %w", err)
	}
	return v, found, n, nil
}

// stepAttr reads step oid and walks it with stepAttrValue.
func (db *DB) stepAttr(oid storage.OID, id AttrID, count bool) (Value, bool, int, error) {
	data, err := db.sm.Read(oid)
	if err != nil {
		return Nil(), false, 0, err
	}
	return stepAttrValue(data, id, count)
}

// --- material_set ------------------------------------------------------------

func encodeSetTo(e *rec.Encoder, members []storage.OID) {
	e.Grow(8 + 9*len(members))
	e.Byte(1)
	e.Uint(uint64(len(members)))
	for _, m := range members {
		e.Uint(uint64(m))
	}
}

func decodeSetRec(data []byte) ([]storage.OID, error) {
	d := rec.NewDecoder(data)
	if v := d.Byte(); v != 1 {
		return nil, fmt.Errorf("labbase: unsupported set record version %d", v)
	}
	n := d.Count(1 << 24)
	if d.Err() != nil {
		return nil, fmt.Errorf("labbase: corrupt set record")
	}
	members := make([]storage.OID, n)
	for i := range members {
		members[i] = storage.OID(d.Uint())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("labbase: set record: %w", err)
	}
	return members, nil
}

// --- chunk chains ------------------------------------------------------------

// History lists and class extents are both chains of fixed-capacity chunks,
// newest chunk first; within a chunk, entries are in insertion
// (transaction) order. A chunk grows by in-place append with the count
// written last and never rewrites an entry, so every chunk but the newest
// is full, and a reader handed a capture-time (head, count) pair sees
// exactly its capture-time prefix while the writer keeps appending. Layout,
// for a count and capacity width w:
//
//	[0]             version
//	[1 : 1+w]       count
//	[1+w : 1+2w]    capacity
//	[1+2w : 9+2w]   next chunk OID (older; 0 = none)
//	[9+2w+i*size :] entry i
type chain struct {
	name  string
	width int // bytes of the count and capacity fields: 1 or 2
	size  int // bytes per entry
	cap   int // entries per chunk
}

// Readers step through a chunk's entries by these constants, which lets the
// compiler drop the bounds checks.
const (
	historyEntrySize = 16 // step OID u64, valid time u64 (int64 bits)
	extentEntrySize  = 8  // member OID u64
)

var (
	historyChain = chain{name: "history", width: 1, size: historyEntrySize, cap: 64}
	extentChain  = chain{name: "extent", width: 2, size: extentEntrySize, cap: 256}
)

func (c *chain) header() int    { return 9 + 2*c.width }
func (c *chain) chunkSize() int { return c.header() + c.cap*c.size }

func (c *chain) field(b []byte, off int) int {
	if c.width == 1 {
		return int(b[off])
	}
	return int(binary.LittleEndian.Uint16(b[off:]))
}

func (c *chain) setField(b []byte, off, v int) {
	if c.width == 1 {
		b[off] = byte(v)
	} else {
		binary.LittleEndian.PutUint16(b[off:], uint16(v))
	}
}

func (c *chain) count(b []byte) int { return c.field(b, 1) }
func (c *chain) next(b []byte) storage.OID {
	return storage.OID(binary.LittleEndian.Uint64(b[1+2*c.width:]))
}
func (c *chain) entry(b []byte, i int) []byte {
	off := c.header() + i*c.size
	return b[off : off+c.size]
}

func (c *chain) disagree(total uint64) error {
	return fmt.Errorf("labbase: %s chain disagrees with count %d: %w", c.name, total, rec.ErrCorrupt)
}

// check rejects a chunk whose size, version or capacity is not the chain's,
// or whose count exceeds its capacity.
func (c *chain) check(b []byte) error {
	if len(b) != c.chunkSize() || b[0] != 1 || c.field(b, 1+c.width) != c.cap || c.count(b) > c.cap {
		return fmt.Errorf("labbase: %s chunk: %w (%d bytes)", c.name, rec.ErrCorrupt, len(b))
	}
	return nil
}

// newChunk returns a chunk holding entry alone, linked to next.
func (c *chain) newChunk(next storage.OID, entry []byte) []byte {
	b := make([]byte, c.chunkSize())
	b[0] = 1
	c.setField(b, 1, 1)
	c.setField(b, 1+c.width, c.cap)
	binary.LittleEndian.PutUint64(b[1+2*c.width:], uint64(next))
	copy(c.entry(b, 0), entry)
	return b
}

// add appends entry to the chain of total entries whose newest chunk is
// *head. A head with room takes it in place, entry first and count last; a
// full one (told from total, untouched) grows the chain by a chunk allocated
// near it. An empty chain starts near first, or in the index segment.
func (db *DB) add(c *chain, head *storage.OID, total uint64, first storage.OID, entry []byte) error {
	if n := int(total % uint64(c.cap)); !head.IsNil() && (n != 0 || total == 0) {
		return storage.Update(db.sm, *head, func(b []byte) error {
			if err := c.check(b); err != nil {
				return err
			}
			if c.count(b) != n {
				return c.disagree(total)
			}
			copy(c.entry(b, n), entry)
			c.setField(b, 1, n+1)
			return nil
		})
	}
	if !head.IsNil() {
		first = *head
	}
	data := c.newChunk(*head, entry)
	var oid storage.OID
	var err error
	if first.IsNil() {
		oid, err = db.sm.Allocate(storage.SegIndex, data)
	} else {
		oid, err = db.sm.AllocateNear(first, data)
	}
	if err != nil {
		return fmt.Errorf("labbase: %s chunk: %w", c.name, err)
	}
	*head = oid
	return nil
}

// walk visits the first total entries of the chain whose newest chunk is
// head, oldest first, calling fn once per chunk with that chunk's visible
// entries back to back. Only the newest chunk can hold more than total
// allows, so a chain longer than total is corrupt (or cyclic) and the walk
// stops before reading past it.
func (db *DB) walk(c *chain, head storage.OID, total uint64, fn func(entries []byte) error) error {
	var chunks [][]byte
	for oid := head; !oid.IsNil(); {
		if uint64(len(chunks))*uint64(c.cap) > total {
			return c.disagree(total)
		}
		data, err := db.sm.Read(oid)
		if err != nil {
			return fmt.Errorf("labbase: read %s chunk: %w", c.name, err)
		}
		if err := c.check(data); err != nil {
			return err
		}
		if len(chunks) > 0 && c.count(data) != c.cap {
			return c.disagree(total)
		}
		chunks = append(chunks, data)
		oid = c.next(data)
	}
	if len(chunks) == 0 {
		if total != 0 {
			return c.disagree(total)
		}
		return nil
	}
	visible := total - uint64(len(chunks)-1)*uint64(c.cap)
	if visible > uint64(c.count(chunks[0])) {
		return c.disagree(total)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		n := c.cap
		if i == 0 {
			n = int(visible)
		}
		if err := fn(chunks[i][c.header() : c.header()+n*c.size]); err != nil {
			return err
		}
	}
	return nil
}

// putHistoryEntry encodes a history chain entry.
func putHistoryEntry(b *[historyEntrySize]byte, e HistoryEntry) {
	binary.LittleEndian.PutUint64(b[:8], uint64(e.Step))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.ValidTime))
}

func historyEntryAt(b []byte) HistoryEntry {
	return HistoryEntry{
		Step:      storage.OID(binary.LittleEndian.Uint64(b)),
		ValidTime: int64(binary.LittleEndian.Uint64(b[8:])),
	}
}

// addToExtent appends oid to a class extent of total members, marking the
// catalog dirty when the extent's head chunk changes.
func (db *DB) addToExtent(head *storage.OID, total uint64, oid storage.OID) error {
	var b [extentEntrySize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(oid))
	old := *head
	err := db.add(&extentChain, head, total, storage.NilOID, b[:])
	if *head != old {
		db.markCat()
	}
	return err
}

// scanExtent calls fn on the first total members of a class extent, oldest
// first.
func (db *DB) scanExtent(head storage.OID, total uint64, fn func(storage.OID) error) error {
	return db.walk(&extentChain, head, total, func(b []byte) error {
		for ; len(b) >= extentEntrySize; b = b[extentEntrySize:] {
			if err := fn(storage.OID(binary.LittleEndian.Uint64(b))); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- most-recent index -------------------------------------------------------

// The most-recent index is the paper's "special access structure" for
// most-recent values: per material, a compact table attr -> (valid time,
// step). Layout:
//
//	[0]   version
//	[1:3] count u16
//	[3:5] capacity u16
//	[5+i*20 : ] entry i: attr u32, valid time u64 (int64 bits), step OID u64
const (
	mrEntrySize  = 20
	mrInitialCap = 8
	mrHeaderSize = 5
)

type mrEntry struct {
	attr      AttrID
	validTime int64
	step      storage.OID
}

func newMRIndex(capacity int) []byte {
	b := make([]byte, mrHeaderSize+capacity*mrEntrySize)
	b[0] = 1
	binary.LittleEndian.PutUint16(b[3:5], uint16(capacity))
	return b
}

func mrCount(b []byte) int { return int(binary.LittleEndian.Uint16(b[1:3])) }
func mrCap(b []byte) int   { return int(binary.LittleEndian.Uint16(b[3:5])) }

func mrGet(b []byte, i int) mrEntry {
	base := mrHeaderSize + i*mrEntrySize
	return mrEntry{
		attr:      AttrID(binary.LittleEndian.Uint32(b[base:])),
		validTime: int64(binary.LittleEndian.Uint64(b[base+4:])),
		step:      storage.OID(binary.LittleEndian.Uint64(b[base+12:])),
	}
}

func mrPut(b []byte, i int, e mrEntry) {
	base := mrHeaderSize + i*mrEntrySize
	binary.LittleEndian.PutUint32(b[base:], uint32(e.attr))
	binary.LittleEndian.PutUint64(b[base+4:], uint64(e.validTime))
	binary.LittleEndian.PutUint64(b[base+12:], uint64(e.step))
}

// mrFind returns the entry index for attr, or -1.
func mrFind(b []byte, attr AttrID) int {
	n := mrCount(b)
	for i := 0; i < n; i++ {
		if AttrID(binary.LittleEndian.Uint32(b[mrHeaderSize+i*mrEntrySize:])) == attr {
			return i
		}
	}
	return -1
}

// mrUpsert installs e if it is newer in valid time than the current entry
// for its attribute (ties go to the newcomer: among equal valid times the
// latest-entered step wins). It returns the possibly-reallocated buffer and
// whether it changed.
func mrUpsert(b []byte, e mrEntry) ([]byte, bool) {
	if i := mrFind(b, e.attr); i >= 0 {
		cur := mrGet(b, i)
		if e.validTime >= cur.validTime {
			mrPut(b, i, e)
			return b, true
		}
		return b, false
	}
	n := mrCount(b)
	if n >= mrCap(b) {
		nb := newMRIndex(mrCap(b) * 2)
		copy(nb[mrHeaderSize:], b[mrHeaderSize:mrHeaderSize+n*mrEntrySize])
		binary.LittleEndian.PutUint16(nb[1:3], uint16(n))
		b = nb
	}
	mrPut(b, n, e)
	binary.LittleEndian.PutUint16(b[1:3], uint16(n+1))
	return b, true
}

func checkMRIndex(b []byte) error {
	if len(b) < mrHeaderSize || b[0] != 1 || len(b) != mrHeaderSize+mrCap(b)*mrEntrySize ||
		mrCap(b) == 0 || mrCount(b) > mrCap(b) {
		return fmt.Errorf("labbase: most-recent index: %w (%d bytes)", rec.ErrCorrupt, len(b))
	}
	return nil
}

// --- counters ----------------------------------------------------------------

// counters mirrors the hot per-class and per-state instance counts, persisted
// as one fixed-width record so the common bump is an in-place page write.
type counters struct {
	matsByClass  []uint64
	stepsByClass []uint64
	matsByState  []uint64
}

func (c *counters) growTo(nmc, nsc, nst int) {
	for len(c.matsByClass) < nmc {
		c.matsByClass = append(c.matsByClass, 0)
	}
	for len(c.stepsByClass) < nsc {
		c.stepsByClass = append(c.stepsByClass, 0)
	}
	for len(c.matsByState) < nst {
		c.matsByState = append(c.matsByState, 0)
	}
}

// clone copies the counters for a published snapshot.
func (c *counters) clone() counters {
	return counters{
		matsByClass:  append([]uint64(nil), c.matsByClass...),
		stepsByClass: append([]uint64(nil), c.stepsByClass...),
		matsByState:  append([]uint64(nil), c.matsByState...),
	}
}

func (c *counters) totalMaterials() uint64 {
	var t uint64
	for _, v := range c.matsByClass {
		t += v
	}
	return t
}

func (c *counters) totalSteps() uint64 {
	var t uint64
	for _, v := range c.stepsByClass {
		t += v
	}
	return t
}

// appendTo encodes the counters onto buf (normally a reused scratch slice;
// storage managers copy the bytes, so the same scratch serves every commit).
func (c *counters) appendTo(buf []byte) []byte {
	n := 7 + 8*(len(c.matsByClass)+len(c.stepsByClass)+len(c.matsByState))
	var b []byte
	if cap(buf) >= n {
		b = buf[:n]
		for i := range b {
			b[i] = 0
		}
	} else {
		b = make([]byte, n)
	}
	b[0] = 1
	binary.LittleEndian.PutUint16(b[1:3], uint16(len(c.matsByClass)))
	binary.LittleEndian.PutUint16(b[3:5], uint16(len(c.stepsByClass)))
	binary.LittleEndian.PutUint16(b[5:7], uint16(len(c.matsByState)))
	off := 7
	for _, group := range [][]uint64{c.matsByClass, c.stepsByClass, c.matsByState} {
		for _, v := range group {
			binary.LittleEndian.PutUint64(b[off:], v)
			off += 8
		}
	}
	return b
}

func (c *counters) encode() []byte { return c.appendTo(nil) }

func decodeCounters(b []byte) (counters, error) {
	var c counters
	if len(b) < 7 || b[0] != 1 {
		return c, fmt.Errorf("labbase: corrupt counters record")
	}
	nmc := int(binary.LittleEndian.Uint16(b[1:3]))
	nsc := int(binary.LittleEndian.Uint16(b[3:5]))
	nst := int(binary.LittleEndian.Uint16(b[5:7]))
	if len(b) != 7+8*(nmc+nsc+nst) {
		return c, fmt.Errorf("labbase: counters record size mismatch")
	}
	off := 7
	read := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		return out
	}
	c.matsByClass = read(nmc)
	c.stepsByClass = read(nsc)
	c.matsByState = read(nst)
	return c, nil
}
