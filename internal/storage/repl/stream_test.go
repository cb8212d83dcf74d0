package repl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"labflow/internal/storage/pagefile"
)

// memLog is an in-memory LogFile that counts its writes and can fail one.
type memLog struct {
	data   []byte
	writes int
	failAt int // the failAt-th write (1-based) fails without effect; 0 = none
}

var errInjected = errors.New("memLog: injected write failure")

func (l *memLog) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(l.data).ReadAt(p, off)
}

func (l *memLog) WriteAt(p []byte, off int64) (int, error) {
	l.writes++
	if l.writes == l.failAt {
		return 0, errInjected
	}
	if end := off + int64(len(p)); end > int64(len(l.data)) {
		l.data = append(l.data, make([]byte, end-int64(len(l.data)))...)
	}
	return copy(l.data[off:], p), nil
}

func (l *memLog) Truncate(size int64) error { l.data = l.data[:size]; return nil }
func (*memLog) Sync() error                 { return nil }
func (l *memLog) Size() (int64, error)      { return int64(len(l.data)), nil }
func (*memLog) Close() error                { return nil }

// group builds n distinct page images, each filled from its own seed.
func group(n int) []PageImage {
	pages := make([]PageImage, n)
	for i := range pages {
		pages[i] = PageImage{ID: pagefile.PageID(3*i + 1), Data: page(byte(i*7 + 1))}
	}
	return pages
}

// chunkPages is the record width the streaming tests' chunk buffer holds,
// the ostore flusher's.
const chunkPages = 16

// TestWriteRecordMatchesAppendRecord: a record streamed through a chunk
// buffer of chunkPages pages lands as exactly AppendRecord's bytes, at the
// given offset, in ceil(n/chunkPages) writes — one for a record that fits.
func TestWriteRecordMatchesAppendRecord(t *testing.T) {
	buf := make([]byte, 0, RecordSize(chunkPages))
	for _, n := range []int{1, chunkPages, chunkPages + 1, 40, 200} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			pages := group(n)
			want := AppendRecord(EncodeCursor(4), 5, pages)
			log := &memLog{data: EncodeCursor(4)}
			if err := WriteRecord(log, CursorSize, 5, pages, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(log.data, want) {
				t.Fatal("the streamed record differs from AppendRecord's")
			}
			if wantWrites := (n + chunkPages - 1) / chunkPages; log.writes != wantWrites {
				t.Errorf("%d writes for %d pages, want %d", log.writes, n, wantWrites)
			}
			cursor, records, err := ScanLog(log)
			if err != nil || cursor != 4 || len(records) != 1 || records[0].LSN != 5 || len(records[0].Pages) != n {
				t.Fatalf("scan: cursor %d, %d records, err %v", cursor, len(records), err)
			}
		})
	}
}

// TestWriteRecordSmallBuffer: a chunk buffer too small for one page entry
// grows rather than writing empty or partial pieces, and the bytes still
// match.
func TestWriteRecordSmallBuffer(t *testing.T) {
	pages := group(3)
	log := &memLog{}
	if err := WriteRecord(log, 0, 9, pages, make([]byte, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.data, EncodeRecord(9, pages)) {
		t.Fatal("the streamed record differs from EncodeRecord's")
	}
}

// TestWriteRecordTornBetweenChunks: a write that fails partway stops the
// stream with its error, and the prefix that landed is not a record.
func TestWriteRecordTornBetweenChunks(t *testing.T) {
	pages := group(40)
	log := &memLog{data: EncodeCursor(0), failAt: 2}
	err := WriteRecord(log, CursorSize, 1, pages, make([]byte, 0, RecordSize(chunkPages)))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if log.writes != 2 {
		t.Errorf("%d writes, want the stream to stop at the failed second", log.writes)
	}
	if _, records, err := ScanLog(log); err != nil || len(records) != 0 {
		t.Fatalf("scan of a record torn between chunks: %d records, err %v", len(records), err)
	}
}
