package repl

import (
	"errors"
	"fmt"

	"labflow/internal/storage/pagefile"
)

// DefaultCheckpointEvery is the checkpoint interval of a Log opened with
// every <= 0, and so the most records a reopen replays.
const DefaultCheckpointEvery = 8

// Log is a redo log over its page backing, running the package comment's
// protocol for a primary (ostore) and a Standby alike. It owns the live
// tail (where the next record goes, not the file's length), the LSN
// sequence, the checkpoint interval and the sync flag. A session is OpenLog,
// then per record an append and, once its pages are in place, Applied, then
// Close. Not safe for concurrent use: the caller serializes.
type Log struct {
	file    LogFile
	backing pagefile.Backing
	sync    bool
	every   int
	tail    int64
	since   int    // records applied since the last checkpoint
	last    uint64 // LSN of the last record appended
}

// OpenLog recovers the log in file and opens a session on it. It replays
// into backing the records the last session left past its cursor (a torn
// tail is discarded), syncs the backing if it replayed any, and empties the
// file behind a fresh cursor (resetLog), so the session starts from a file
// holding nothing stale. It returns what recovery did and the replayed
// records, whose images alias the scan buffer. On an error nothing is closed.
func OpenLog(file LogFile, backing pagefile.Backing, sync bool, every int) (*Log, RecoveryInfo, []Record, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	cursorLSN, records, err := ScanLog(file)
	if err != nil {
		return nil, RecoveryInfo{}, nil, err
	}
	last := cursorLSN
	for _, rec := range records {
		if err := applyRecord(backing, rec.Pages); err != nil {
			return nil, RecoveryInfo{}, nil, fmt.Errorf("replay record %d: %w", rec.LSN, err)
		}
		last = rec.LSN
	}
	if len(records) > 0 {
		if err := backing.Sync(); err != nil {
			return nil, RecoveryInfo{}, nil, err
		}
	}
	if err := resetLog(file, last, sync); err != nil {
		return nil, RecoveryInfo{}, nil, err
	}
	l := &Log{file: file, backing: backing, sync: sync, every: every, tail: CursorSize, last: last}
	return l, RecoveryInfo{CheckpointLSN: cursorLSN, Replayed: len(records), NextLSN: last + 1}, records, nil
}

// SetSync makes every later append and checkpoint force the file down.
func (l *Log) SetSync(on bool) { l.sync = on }

// LastLSN returns the LSN of the last record appended, or the cursor's when
// none has been this session; the next record carries LastLSN()+1.
func (l *Log) LastLSN() uint64 { return l.last }

// Tail returns the offset the next record is written at.
func (l *Log) Tail() int64 { return l.tail }

// Append writes the next record at the tail, streamed from pages through
// buf (WriteRecord), and syncs it on a synced log. Once it returns nil the
// record is in the log: its LSN is used up and the tail is past it. On an
// error neither moves, and the next record is written over the failed one.
func (l *Log) Append(pages []PageImage, buf []byte) error {
	if err := WriteRecord(l.file, l.tail, l.last+1, pages, buf); err != nil {
		return fmt.Errorf("write log: %w", err)
	}
	return l.land(RecordSize(uint32(len(pages))), nil)
}

// AppendShipped is Append for a shipped record's bytes, carrying
// LastLSN()+1, that also applies the record's pages (rec is its decoding)
// to the backing once it is journaled: a crash mid-apply replays it on
// reopen. The record counts as appended only once its pages are in place.
func (l *Log) AppendShipped(record []byte, rec Record) error {
	if _, err := l.file.WriteAt(record, l.tail); err != nil {
		return fmt.Errorf("write log: %w", err)
	}
	return l.land(int64(len(record)), rec.Pages)
}

// land finishes the append of the size-byte record just written at the
// tail: it syncs the log on a synced log, applies pages to the backing, and
// steps the tail and the LSN past the record.
func (l *Log) land(size int64, pages []PageImage) error {
	if l.sync {
		if err := l.file.Sync(); err != nil {
			return fmt.Errorf("sync log: %w", err)
		}
	}
	if err := applyRecord(l.backing, pages); err != nil {
		return fmt.Errorf("apply record %d: %w", l.last+1, err)
	}
	l.tail += size
	l.last++
	return nil
}

// Applied counts one appended record, whose pages are now in place in the
// backing, toward the checkpoint interval. When a checkpoint is due it syncs
// the backing, rewrites the cursor, and only then moves the tail back to
// CursorSize, so the next interval overlays the retired records. On an error
// the tail stays: the old cursor still vouches for every record since it, so
// the next record is appended behind them, and the next Applied retries.
func (l *Log) Applied() error {
	l.since++
	if l.since < l.every {
		return nil
	}
	if err := l.backing.Sync(); err != nil {
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	if err := checkpoint(l.file, l.last, l.sync); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.since = 0
	l.tail = CursorSize
	return nil
}

// Close ends the session with the final checkpoint (resetLog), which gives
// the recycled blocks back, and closes the file even if that failed. The
// caller must have synced the backing: the next open replays nothing.
func (l *Log) Close() error {
	return errors.Join(resetLog(l.file, l.last, l.sync), l.file.Close())
}

// Abandon closes the file without a final checkpoint, leaving the log as a
// crash would, for the next OpenLog to recover.
func (l *Log) Abandon() error { return l.file.Close() }
