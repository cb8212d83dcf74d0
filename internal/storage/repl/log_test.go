package repl

import (
	"errors"
	"testing"

	"labflow/internal/storage/pagefile"
)

// cursorFailLog is a memLog that refuses the next fails cursor writes.
type cursorFailLog struct {
	memLog
	fails int
}

var errCursorLost = errors.New("injected cursor write failure")

func (l *cursorFailLog) WriteAt(p []byte, off int64) (int, error) {
	if off == 0 && l.fails > 0 {
		l.fails--
		return 0, errCursorLost
	}
	return l.memLog.WriteAt(p, off)
}

// TestLogFailedCheckpointKeepsTail: the tail moves back only once the new
// cursor is down. While cursor writes fail, the old cursor still vouches for
// every record since it, so each next record is appended behind them, not
// laid over the first (which would leave a log that replays nothing, or a
// prefix). The checkpoint that finally succeeds retires the whole run.
func TestLogFailedCheckpointKeepsTail(t *testing.T) {
	lf := &cursorFailLog{}
	l, _, _, err := OpenLog(lf, pagefile.NewMem(), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf.fails = 2 // past the cursor OpenLog wrote
	buf := make([]byte, 0, RecordSize(1))
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := l.Append(group(1), buf); err != nil {
			t.Fatalf("append %d: %v", lsn, err)
		}
		err := l.Applied()
		if lsn == 3 {
			if err != nil {
				t.Fatalf("checkpoint after record 3: %v", err)
			}
			break
		}
		if !errors.Is(err, errCursorLost) {
			t.Fatalf("checkpoint after record %d = %v, want the lost cursor write", lsn, err)
		}
		cursor, records, err := ScanLog(lf)
		if err != nil || cursor != 0 || uint64(len(records)) != lsn {
			t.Fatalf("after failed checkpoint %d: cursor=%d records=%d err=%v, want cursor 0 and every record since it",
				lsn, cursor, len(records), err)
		}
		if want := CursorSize + int64(lsn)*RecordSize(1); l.Tail() != want {
			t.Fatalf("after failed checkpoint %d: tail %d, want %d", lsn, l.Tail(), want)
		}
	}
	if cursor, records, err := ScanLog(lf); err != nil || cursor != 3 || len(records) != 0 {
		t.Fatalf("after the checkpoint: cursor=%d records=%d err=%v, want cursor 3 and none", cursor, len(records), err)
	}
	if l.Tail() != CursorSize || l.LastLSN() != 3 {
		t.Fatalf("after the checkpoint: tail %d, last LSN %d; want %d and 3", l.Tail(), l.LastLSN(), CursorSize)
	}
}

// TestStandbyFailedCheckpointReplays is the same clause through a standby:
// checkpoints inside Apply fail, and the journal they leave must still hold
// every record applied since the old cursor, so a reopen over an empty
// backing replays them all.
func TestStandbyFailedCheckpointReplays(t *testing.T) {
	lf := &cursorFailLog{}
	st, err := NewStandby(pagefile.NewMem(), lf, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf.fails = 3
	for lsn := uint64(1); lsn <= 3; lsn++ {
		rec := EncodeRecord(lsn, []PageImage{{ID: pagefile.PageID(lsn), Data: page(byte(lsn))}})
		if _, err := st.Apply(rec); !errors.Is(err, errCursorLost) {
			t.Fatalf("apply %d = %v, want the lost cursor write", lsn, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	backing := pagefile.NewMem()
	st2, err := NewStandby(backing, &lf.memLog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st2.LastLSN() != 3 {
		t.Fatalf("reopened standby at LSN %d, want 3: the journal lost records", st2.LastLSN())
	}
	got := make([]byte, pagefile.PageSize)
	for id := pagefile.PageID(1); id <= 3; id++ {
		if err := backing.ReadPage(id, got); err != nil || got[0] != byte(id) {
			t.Fatalf("page %d after replay: fill %#x, err %v; want %#x", id, got[0], err, byte(id))
		}
	}
}
