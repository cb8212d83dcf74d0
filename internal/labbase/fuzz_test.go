package labbase

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// FuzzDecodeValue feeds arbitrary bytes to the value decoder: it must never
// panic, and whatever it decodes must re-encode and re-decode stably.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{
		Int64(7), Float64(1.5), String("ACGT"), Bool(true),
		ListOf(Int64(1), ListOf(String("x"))),
	} {
		e := rec.NewEncoder(32)
		EncodeValue(e, v)
		f.Add(e.Bytes())
	}
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := rec.NewDecoder(data)
		v := DecodeValue(d)
		if d.Err() != nil {
			return
		}
		e := rec.NewEncoder(len(data))
		EncodeValue(e, v)
		d2 := rec.NewDecoder(e.Bytes())
		v2 := DecodeValue(d2)
		if d2.Err() != nil || !v.Equal(v2) {
			t.Fatalf("re-decode mismatch: %v vs %v", v, v2)
		}
	})
}

// FuzzDecodeStepRec feeds arbitrary bytes to the step-record decoder.
func FuzzDecodeStepRec(f *testing.F) {
	s := &stepRec{
		classID: 1, version: 1, validTime: 10, txnTime: 2,
		attrIDs:  []AttrID{1},
		attrVals: []Value{String("x")},
	}
	f.Add(s.encode())
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeStepRec(data)
		if err != nil {
			return
		}
		// A decodable record re-encodes to something decodable.
		if _, err := decodeStepRec(rec.encode()); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzStepAttr holds stepAttrValue to decodeStepRec followed by a lookup
// of the first value tagged id: on arbitrary bytes, for every attribute id
// the record names and for ids it does not, both must agree on the value,
// on whether it was found, on how many values the record holds and on
// whether the record is refused; so must the count-only walk Dump takes.
func FuzzStepAttr(f *testing.F) {
	hits := ListOf(
		ListOf(String("LF0000001"), Float64(0.75)),
		ListOf(String("LF0000002"), Float64(0.5)),
	)
	for _, s := range []*stepRec{
		{classID: 1, version: 1, validTime: 10, txnTime: 2, attrIDs: []AttrID{1}, attrVals: []Value{String("x")}},
		{
			classID: 7, version: 3, validTime: -5, txnTime: 1 << 40,
			materials: []storage.OID{storage.MakeOID(storage.SegMaterial, 9)},
			attrIDs:   []AttrID{4, 2, 9, 3, 5},
			attrVals: []Value{
				String(strings.Repeat("ACGT", 300)), hits, Int64(2), Bool(true), Ref(storage.MakeOID(storage.SegMaterial, 9)),
			},
		},
		{
			classID: 2, set: storage.MakeOID(storage.SegHistory, 4),
			attrIDs:  []AttrID{6, 6, 1},
			attrVals: []Value{Float64(1.5), String("second"), Nil()},
		},
	} {
		data := s.encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(data, 0))
	}
	f.Add([]byte{1})
	f.Add([]byte{2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := decodeStepRec(data)
		ids := []AttrID{0, 1, 2, 6, 1 << 20}
		if werr == nil {
			ids = append(ids, want.attrIDs...)
		}
		for _, id := range ids {
			v, ok, n, err := stepAttrValue(data, id, false)
			if werr != nil {
				if err == nil {
					t.Fatalf("attr %d: stepAttrValue accepts a record decodeStepRec refuses (%v)", id, werr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("attr %d: stepAttrValue refuses a record decodeStepRec accepts: %v", id, err)
			}
			wv, wok := Nil(), false
			if i := slices.Index(want.attrIDs, id); i >= 0 {
				wv, wok = want.attrVals[i], true
			}
			if ok != wok || !v.Equal(wv) {
				t.Fatalf("attr %d: stepAttrValue = %v, %v; decodeStepRec's = %v, %v", id, v, ok, wv, wok)
			}
			if n != len(want.attrIDs) {
				t.Fatalf("attr %d: stepAttrValue counts %d values; decodeStepRec has %d", id, n, len(want.attrIDs))
			}
		}
		// The count-only walk builds no value and agrees on the count and
		// on refusing the record.
		v, ok, n, err := stepAttrValue(data, 1, true)
		if (err == nil) != (werr == nil) || ok || v.Kind != KindNil || (werr == nil && n != len(want.attrIDs)) {
			t.Fatalf("count-only walk = %v, %v, %d, %v; decodeStepRec's %d values, %v", v, ok, n, err, len(want.attrIDs), werr)
		}
	})
}

// FuzzDecodeMaterialRec feeds arbitrary bytes to the material decoder.
func FuzzDecodeMaterialRec(f *testing.F) {
	m := &materialRec{classID: 1, stateID: 2, createdAt: 3, name: "c1"}
	f.Add(m.encode())
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeMaterialRec(data)
		if err != nil {
			return
		}
		if _, err := decodeMaterialRec(rec.encode()); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzChunkRecords feeds arbitrary bytes to the chunk-chain and most-recent
// index checks: a record either fails its check with rec.ErrCorrupt or
// serves every accessor, an in-place append included, without panicking.
func FuzzChunkRecords(f *testing.F) {
	var hb [historyEntrySize]byte
	putHistoryEntry(&hb, HistoryEntry{Step: 7, ValidTime: 3})
	f.Add(historyChain.newChunk(9, hb[:]))
	f.Add(extentChain.newChunk(9, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	mr, _ := mrUpsert(newMRIndex(mrInitialCap), mrEntry{attr: 1, validTime: 2, step: 3})
	f.Add(mr)
	// Well-formed records whose count exceeds their capacity.
	h := historyChain.newChunk(0, hb[:])
	h[1] = 200
	f.Add(h)
	x := extentChain.newChunk(0, make([]byte, 8))
	x[1], x[2] = 0xFF, 0xFF
	f.Add(x)
	f.Add([]byte{1, 1, 0, 0, 0})
	// A most-recent index with no room to grow from.
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []*chain{&historyChain, &extentChain} {
			if err := c.check(data); err != nil {
				if !errors.Is(err, rec.ErrCorrupt) {
					t.Fatalf("%s check: untyped error %v", c.name, err)
				}
				continue
			}
			b := append([]byte(nil), data...)
			n := c.count(b)
			for i := 0; i < n; i++ {
				_ = c.entry(b, i)
			}
			_ = c.next(b)
			if n < c.cap {
				copy(c.entry(b, n), make([]byte, c.size))
				c.setField(b, 1, n+1)
			}
			if err := c.check(b); err != nil {
				t.Fatalf("%s chunk fails its check after an append: %v", c.name, err)
			}
		}
		if err := checkMRIndex(data); err != nil {
			if !errors.Is(err, rec.ErrCorrupt) {
				t.Fatalf("most-recent index check: untyped error %v", err)
			}
			return
		}
		b := append([]byte(nil), data...)
		for i := 0; i < mrCount(b); i++ {
			_ = mrGet(b, i)
		}
		_ = mrFind(b, 1)
		b, _ = mrUpsert(b, mrEntry{attr: 1 << 20, validTime: 1, step: 1})
		if err := checkMRIndex(b); err != nil {
			t.Fatalf("most-recent index fails its check after an upsert: %v", err)
		}
	})
}
