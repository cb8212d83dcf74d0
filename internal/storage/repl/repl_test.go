package repl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"labflow/internal/storage/pagefile"
)

func page(fill byte) []byte {
	b := make([]byte, pagefile.PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func openLog(t *testing.T) LogFile {
	t.Helper()
	lf, err := OpenFile(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.Close() })
	return lf
}

func TestRecordRoundTrip(t *testing.T) {
	pages := []PageImage{{ID: 3, Data: page(0xAA)}, {ID: 0, Data: page(0xBB)}}
	buf := EncodeRecord(7, pages)
	rec, size, ok := DecodeRecord(buf)
	if !ok || size != int64(len(buf)) {
		t.Fatalf("decode: ok=%v size=%d len=%d", ok, size, len(buf))
	}
	if rec.LSN != 7 || len(rec.Pages) != 2 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Pages[0].ID != 3 || !bytes.Equal(rec.Pages[0].Data, pages[0].Data) {
		t.Fatal("page 0 mismatch")
	}

	// Empty records are valid: an LSN with no page images.
	empty := EncodeRecord(9, nil)
	rec, _, ok = DecodeRecord(empty)
	if !ok || rec.LSN != 9 || len(rec.Pages) != 0 {
		t.Fatalf("empty record: ok=%v rec=%+v", ok, rec)
	}

	// Any single corrupted byte must invalidate the record.
	for _, off := range []int{0, 11, 20, len(buf) - 10, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0x01
		if _, _, ok := DecodeRecord(bad); ok {
			t.Errorf("corrupt byte at %d still decoded", off)
		}
	}
	// A truncated record must not validate.
	if _, _, ok := DecodeRecord(buf[:len(buf)-1]); ok {
		t.Error("truncated record decoded")
	}
}

func TestCursorRoundTrip(t *testing.T) {
	buf := EncodeCursor(42)
	if len(buf) != CursorSize {
		t.Fatalf("cursor len %d", len(buf))
	}
	lsn, ok := DecodeCursor(buf)
	if !ok || lsn != 42 {
		t.Fatalf("cursor = %d, %v", lsn, ok)
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x01
		if _, ok := DecodeCursor(bad); ok {
			t.Errorf("corrupt cursor byte %d still decoded", i)
		}
	}
	if _, ok := DecodeCursor(make([]byte, CursorSize)); ok {
		t.Error("all-zero cursor decoded")
	}
}

// TestScanLogTornTail pins the recovery scan: records replay in LSN order
// from the cursor, and the first invalid record discards the rest.
func TestScanLogTornTail(t *testing.T) {
	lf := openLog(t)
	if err := Checkpoint(lf, 10, false); err != nil {
		t.Fatal(err)
	}
	off := int64(CursorSize)
	for lsn := uint64(11); lsn <= 13; lsn++ {
		buf := EncodeRecord(lsn, []PageImage{{ID: pagefile.PageID(lsn), Data: page(byte(lsn))}})
		if _, err := lf.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
	}
	// A torn fourth record: only half its bytes land.
	torn := EncodeRecord(14, []PageImage{{ID: 99, Data: page(0xEE)}})
	if _, err := lf.WriteAt(torn[:len(torn)/2], off); err != nil {
		t.Fatal(err)
	}

	cursor, records, err := ScanLog(lf)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 10 || len(records) != 3 {
		t.Fatalf("cursor=%d records=%d, want 10, 3", cursor, len(records))
	}
	for i, rec := range records {
		if rec.LSN != 11+uint64(i) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}

	// A log whose head is not a valid cursor yields nothing at all.
	if err := lf.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := lf.WriteAt(EncodeRecord(1, nil), 0); err != nil {
		t.Fatal(err)
	}
	if cursor, records, err := ScanLog(lf); err != nil || cursor != 0 || len(records) != 0 {
		t.Fatalf("cursorless log: %d records cursor=%d err=%v", len(records), cursor, err)
	}
}

// TestStandbyApplyAndRecover drives the full standby life cycle: sequenced
// applies, gap refusal, crash-replay of its own journal tail, promotion.
func TestStandbyApplyAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follow.db")
	st, err := OpenFileStandby(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := st.Ship(lsn, EncodeRecord(lsn, []PageImage{{ID: pagefile.PageID(lsn - 1), Data: page(byte(lsn))}})); err != nil {
			t.Fatalf("ship %d: %v", lsn, err)
		}
	}
	// Out-of-sequence record refused, state unchanged.
	if err := st.Ship(9, EncodeRecord(9, nil)); !errors.Is(err, ErrStandbyGap) {
		t.Fatalf("gap: %v", err)
	}
	if st.LastLSN() != 3 || st.Applied() != 3 {
		t.Fatalf("lsn=%d applied=%d", st.LastLSN(), st.Applied())
	}
	// Abandon without promoting (the standby "crashes"): a new incarnation
	// over the same files replays the un-checkpointed tail and continues.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFileStandby(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.LastLSN() != 3 {
		t.Fatalf("reopened standby at LSN %d, want 3", st2.LastLSN())
	}
	if err := st2.Ship(4, EncodeRecord(4, []PageImage{{ID: 0, Data: page(0x44)}})); err != nil {
		t.Fatal(err)
	}
	if err := st2.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Apply(EncodeRecord(5, nil)); !errors.Is(err, ErrStandbyDone) {
		t.Fatalf("apply after promote: %v", err)
	}

	// The promoted backing holds every applied image.
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	buf := make([]byte, pagefile.PageSize)
	for id, fill := range map[pagefile.PageID]byte{0: 0x44, 1: 0x02, 2: 0x03} {
		if err := fb.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != fill || buf[pagefile.PageSize-1] != fill {
			t.Errorf("page %d = %#x, want %#x", id, buf[0], fill)
		}
	}
}

// TestStandbyReacksLostAckDuplicate pins the ack-lost resolution: a
// byte-identical retransmission of the record just applied is re-acked
// without being reapplied, while the same LSN with different bytes — a
// diverged or mispaired peer — is refused, and older LSNs stay gaps.
func TestStandbyReacksLostAckDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follow.db")
	st, err := OpenFileStandby(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := EncodeRecord(2, []PageImage{{ID: 1, Data: page(0x22)}})
	if err := st.Ship(1, EncodeRecord(1, []PageImage{{ID: 0, Data: page(0x11)}})); err != nil {
		t.Fatal(err)
	}
	if err := st.Ship(2, rec2); err != nil {
		t.Fatal(err)
	}

	// The exact bytes again: re-acked, nothing reapplied.
	lsn, err := st.Apply(rec2)
	if err != nil || lsn != 2 {
		t.Fatalf("duplicate apply = (%d, %v), want re-ack of 2", lsn, err)
	}
	if st.LastLSN() != 2 || st.Applied() != 2 {
		t.Fatalf("after re-ack: lsn=%d applied=%d, want 2, 2", st.LastLSN(), st.Applied())
	}

	// Same LSN, different contents: refused loudly.
	if _, err := st.Apply(EncodeRecord(2, []PageImage{{ID: 1, Data: page(0xDD)}})); !errors.Is(err, ErrStandbyGap) {
		t.Fatalf("conflicting duplicate: err = %v, want ErrStandbyGap", err)
	}
	// An LSN behind the last applied one is still a gap, not a re-ack.
	if _, err := st.Apply(EncodeRecord(1, []PageImage{{ID: 0, Data: page(0x11)}})); !errors.Is(err, ErrStandbyGap) {
		t.Fatalf("stale LSN: err = %v, want ErrStandbyGap", err)
	}

	// A standby restart keeps the duplicate check when the tail record is
	// still in its journal: LSN 2 was applied after the every=4 checkpoint
	// window opened, so the reopened standby re-derives its CRC and still
	// refuses conflicting bytes while re-acking the original.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFileStandby(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if lsn, err := st2.Apply(rec2); err != nil || lsn != 2 {
		t.Fatalf("re-ack after restart = (%d, %v), want 2", lsn, err)
	}
	if _, err := st2.Apply(EncodeRecord(2, []PageImage{{ID: 1, Data: page(0xDD)}})); !errors.Is(err, ErrStandbyGap) {
		t.Fatalf("conflicting duplicate after restart: err = %v, want ErrStandbyGap", err)
	}
	if lsn, err := st2.Apply(EncodeRecord(3, nil)); err != nil || lsn != 3 {
		t.Fatalf("stream resumes after re-ack = (%d, %v), want 3", lsn, err)
	}
}

// TestStandbyFollowerLSN pins the follower state the primaries'
// pending-record resolution.
func TestStandbyFollowerLSN(t *testing.T) {
	st, err := OpenFileStandby(filepath.Join(t.TempDir(), "follow.db"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var _ Shipper = st
	if lsn, err := st.FollowerLSN(); err != nil || lsn != 0 {
		t.Fatalf("FollowerLSN = (%d, %v), want 0", lsn, err)
	}
	if err := st.Ship(1, EncodeRecord(1, nil)); err != nil {
		t.Fatal(err)
	}
	if lsn, err := st.FollowerLSN(); err != nil || lsn != 1 {
		t.Fatalf("FollowerLSN = (%d, %v), want 1", lsn, err)
	}
}

// appendRecords writes one-page records lsn..lsn+n-1 at off, every page
// filled with fill, and returns the offset past the last.
func appendRecords(t *testing.T, lf LogFile, off int64, lsn uint64, n int, fill byte) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		buf := EncodeRecord(lsn+uint64(i), []PageImage{{ID: pagefile.PageID(i), Data: page(fill)}})
		if _, err := lf.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
	}
	return off
}

func TestAppendRecordMatchesEncodeRecord(t *testing.T) {
	pages := []PageImage{{ID: 3, Data: page(0xAA)}, {ID: 0, Data: page(0xBB)}}
	want := EncodeRecord(7, pages)
	// A reused buffer, and one with a prefix the CRC must not cover.
	scratch := AppendRecord(make([]byte, 0, 4*len(want)), 99, pages[:1])
	if got := AppendRecord(scratch[:0], 7, pages); !bytes.Equal(got, want) {
		t.Fatal("AppendRecord into a reused buffer differs from EncodeRecord")
	}
	if got := AppendRecord([]byte("junk"), 7, pages); !bytes.Equal(got[4:], want) || string(got[:4]) != "junk" {
		t.Fatal("AppendRecord after a prefix differs from EncodeRecord")
	}
}

// TestCheckpointRecyclesInPlace pins the two entry points: Checkpoint leaves
// the file's length alone, ResetLog empties it first.
func TestCheckpointRecyclesInPlace(t *testing.T) {
	lf := openLog(t)
	if err := ResetLog(lf, 0, false); err != nil {
		t.Fatal(err)
	}
	end := appendRecords(t, lf, CursorSize, 1, 3, 0x11)
	if err := Checkpoint(lf, 3, true); err != nil {
		t.Fatal(err)
	}
	if size, _ := lf.Size(); size != end {
		t.Fatalf("in-session checkpoint changed the file length: %d, want %d", size, end)
	}
	if cursor, records, err := ScanLog(lf); err != nil || cursor != 3 || len(records) != 0 {
		t.Fatalf("after checkpoint: cursor=%d records=%d err=%v, want 3, 0", cursor, len(records), err)
	}
	if err := ResetLog(lf, 3, true); err != nil {
		t.Fatal(err)
	}
	if size, _ := lf.Size(); size != CursorSize {
		t.Fatalf("ResetLog left %d bytes, want %d", size, CursorSize)
	}
}

// TestScanLogIgnoresRetiredGeneration is the same-size case: the retired
// interval's records sit on exactly the boundaries the live interval's
// records will use, whole and CRC-valid. Only the LSN tells them apart, so
// at every prefix length of the new generation — including a new record torn
// halfway over an old one — the scan must return the live prefix and stop.
func TestScanLogIgnoresRetiredGeneration(t *testing.T) {
	const gen = 4
	lf := openLog(t)
	if err := ResetLog(lf, 0, false); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, lf, CursorSize, 1, gen, 0x11)
	if err := Checkpoint(lf, gen, false); err != nil {
		t.Fatal(err)
	}
	recSize := RecordSize(1)
	for live := 0; live <= gen; live++ {
		if live > 0 {
			appendRecords(t, lf, CursorSize+int64(live-1)*recSize, gen+uint64(live), 1, 0x22)
		}
		check := func(when string) {
			t.Helper()
			cursor, records, err := ScanLog(lf)
			if err != nil || cursor != gen || len(records) != live {
				t.Fatalf("%s, %d live records: cursor=%d records=%d err=%v", when, live, cursor, len(records), err)
			}
			for i, rec := range records {
				if rec.LSN != gen+uint64(i)+1 || rec.Pages[0].Data[0] != 0x22 {
					t.Fatalf("%s, live record %d: LSN %d fill %#x — a retired record was replayed",
						when, i, rec.LSN, rec.Pages[0].Data[0])
				}
			}
		}
		check("whole records")
		if live < gen {
			// The next record, torn: its head (with the LSN the scan is
			// waiting for) lands over the retired record's head, the rest
			// of the retired record survives behind it.
			next := EncodeRecord(gen+uint64(live)+1, []PageImage{{ID: 0, Data: page(0x22)}})
			off := CursorSize + int64(live)*recSize
			old := make([]byte, len(next)/2)
			if _, err := lf.ReadAt(old, off); err != nil {
				t.Fatal(err)
			}
			if _, err := lf.WriteAt(next[:len(next)/2], off); err != nil {
				t.Fatal(err)
			}
			check("torn overlay")
			if _, err := lf.WriteAt(old, off); err != nil { // put the retired record back
				t.Fatal(err)
			}
		}
	}
}

// TestNoStaleReplayAfterLSNRestart is the reason opening truncates. A
// session ends on a torn cursor with its last interval still in the file;
// the next session finds no valid cursor and restarts its LSNs at 1, so the
// old records now carry LSNs it has yet to reach. It applies n records and
// is abandoned. Whatever n is — short of the old range, inside it, past it —
// the scan a third session would run must find the second session's records
// since its last checkpoint and not one of the first's.
func TestNoStaleReplayAfterLSNRestart(t *testing.T) {
	const oldTail, every = 7, 4
	for n := 0; n <= 12; n++ {
		path := filepath.Join(t.TempDir(), "follow.db")
		st, err := OpenFileStandby(path, oldTail+1)
		if err != nil {
			t.Fatal(err)
		}
		for lsn := uint64(1); lsn <= oldTail; lsn++ {
			if err := st.Ship(lsn, EncodeRecord(lsn, []PageImage{{ID: 0, Data: page(0x11)}})); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The checkpoint that would have retired them tore its cursor.
		lf, err := OpenFile(path + ".log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.WriteAt(bytes.Repeat([]byte{0xFF}, CursorSize/2), 8); err != nil {
			t.Fatal(err)
		}
		lf.Close()

		st2, err := OpenFileStandby(path, every)
		if err != nil {
			t.Fatal(err)
		}
		if st2.LastLSN() != 0 {
			t.Fatalf("torn cursor: reopened at LSN %d, want the restart at 0", st2.LastLSN())
		}
		for lsn := uint64(1); lsn <= uint64(n); lsn++ {
			if err := st2.Ship(lsn, EncodeRecord(lsn, []PageImage{{ID: 0, Data: page(0x22)}})); err != nil {
				t.Fatal(err)
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}

		lf, err = OpenFile(path + ".log")
		if err != nil {
			t.Fatal(err)
		}
		cursor, records, err := ScanLog(lf)
		lf.Close()
		wantCursor := uint64(n - n%every)
		if err != nil || cursor != wantCursor || len(records) != n%every {
			t.Fatalf("n=%d: cursor=%d records=%d err=%v, want cursor %d and %d records",
				n, cursor, len(records), err, wantCursor, n%every)
		}
		for _, rec := range records {
			if rec.Pages[0].Data[0] != 0x22 {
				t.Fatalf("n=%d: record %d of the torn-cursor session was replayed", n, rec.LSN)
			}
		}
	}
}

// TestStandbyJournalLengthBounded: the standby's journal is the same
// recycled log, so it too stays within cursor + widest interval while the
// session runs and is emptied by Promote.
func TestStandbyJournalLengthBounded(t *testing.T) {
	const every = 3
	path := filepath.Join(t.TempDir(), "follow.db")
	st, err := OpenFileStandby(path, every)
	if err != nil {
		t.Fatal(err)
	}
	var interval, widest int64
	for lsn := uint64(1); lsn <= 20; lsn++ {
		pages := make([]PageImage, 1+lsn%4) // records of four different sizes
		for i := range pages {
			pages[i] = PageImage{ID: pagefile.PageID(i), Data: page(byte(lsn))}
		}
		if err := st.Ship(lsn, EncodeRecord(lsn, pages)); err != nil {
			t.Fatal(err)
		}
		interval += RecordSize(uint32(len(pages)))
		widest = max(widest, interval)
		if lsn%every == 0 {
			interval = 0
		}
		info, err := os.Stat(path + ".log")
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > CursorSize+widest {
			t.Fatalf("after LSN %d the journal is %d bytes, over cursor + widest interval = %d",
				lsn, info.Size(), CursorSize+widest)
		}
	}
	if err := st.Promote(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path + ".log"); err != nil || info.Size() != CursorSize {
		t.Fatalf("promoted journal: %v, %v; want exactly the cursor", info, err)
	}
}
