// Package rec implements the compact binary record encoding used by every
// persistent structure in this repository: LabBase catalog records, material
// and step instances, history chunks, and the client/server wire protocol.
//
// The format is deliberately simple and self-contained: unsigned and signed
// varints (as in encoding/binary), length-prefixed byte strings, and IEEE-754
// float64 bits. Decoders carry a sticky error so call sites can decode a
// whole record and check the error once, in the style of bufio.Scanner.
package rec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrCorrupt is returned (wrapped) when a record cannot be decoded.
var ErrCorrupt = errors.New("rec: corrupt record")

// Encoder accumulates an encoded record. The zero value is ready to use.
type Encoder struct {
	b []byte
}

// NewEncoder returns an encoder with capacity for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{b: make([]byte, 0, n)}
}

// encoderPool recycles encoder buffers across hot encode paths. Buffers keep
// whatever capacity they grew to, so steady-state encodes stop allocating.
var encoderPool = sync.Pool{
	New: func() any { return &Encoder{b: make([]byte, 0, 256)} },
}

// GetEncoder returns an empty pooled encoder. Callers must hand it back with
// PutEncoder once the encoded bytes have been consumed (every storage manager
// copies the data passed to Allocate/Write, so release immediately after the
// call). The bytes returned by Bytes are invalid after PutEncoder.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns a pooled encoder for reuse. Oversized buffers (from a
// rare huge record) are dropped rather than pinned in the pool.
func PutEncoder(e *Encoder) {
	if cap(e.b) > 1<<16 {
		return
	}
	encoderPool.Put(e)
}

// Grow ensures capacity for at least n more bytes, so a sequence of appends
// encodes into one allocation at most.
func (e *Encoder) Grow(n int) {
	if free := cap(e.b) - len(e.b); free < n {
		nb := make([]byte, len(e.b), len(e.b)+n)
		copy(nb, e.b)
		e.b = nb
	}
}

// Bytes returns the encoded record. The slice is owned by the encoder and is
// invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.b) }

// Reset discards the contents, keeping the buffer.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// Uint appends an unsigned varint.
func (e *Encoder) Uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends a signed (zig-zag) varint.
func (e *Encoder) Int(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Byte appends a single raw byte.
func (e *Encoder) Byte(v byte) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float appends a float64 as 8 little-endian bytes.
func (e *Encoder) Float(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) PutBytes(v []byte) {
	e.Uint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.Uint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// Raw appends bytes with no length prefix.
func (e *Encoder) Raw(v []byte) { e.b = append(e.b, v...) }

// Decoder reads a record produced by Encoder. Errors are sticky: after the
// first failure all subsequent reads return zero values and Err reports the
// original error.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset points the decoder at b, as NewDecoder would, so one decoder can
// serve a stream of records.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Corrupt marks the record as corrupt from the caller's side (for example an
// unknown tag byte); subsequent reads return zero values.
func (d *Decoder) Corrupt(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float reads a float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Count reads an element count that drives a loop or allocation. Counts
// beyond max or beyond the remaining input (every element needs at least one
// byte) mark the record corrupt and return 0, so a hostile length can force
// neither a huge allocation nor a long loop.
func (d *Decoder) Count(max int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.Remaining()) {
		d.Corrupt(fmt.Sprintf("count %d out of range", n))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// decoder's underlying buffer.
func (d *Decoder) Bytes() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("bytes body")
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// Rest consumes and returns every undecoded byte. The returned slice
// aliases the decoder's underlying buffer.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	v := d.b[d.off:]
	d.off = len(d.b)
	return v
}

// String reads a length-prefixed string (copying out of the buffer).
func (d *Decoder) String() string { return string(d.Bytes()) }

// Finish reports an error if decoding failed or bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}
