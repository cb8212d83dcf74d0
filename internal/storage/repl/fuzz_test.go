package repl

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// byteLog is a read-only LogFile over a byte slice.
type byteLog []byte

func (l byteLog) ReadAt(p []byte, off int64) (int, error) { return bytes.NewReader(l).ReadAt(p, off) }
func (byteLog) WriteAt([]byte, int64) (int, error)        { return 0, errors.New("byteLog: read-only") }
func (byteLog) Truncate(int64) error                      { return errors.New("byteLog: read-only") }
func (byteLog) Sync() error                               { return nil }
func (l byteLog) Size() (int64, error)                    { return int64(len(l)), nil }
func (byteLog) Close() error                              { return nil }

// FuzzScanLog feeds arbitrary bytes to the recovery scan, the one decoder
// that reads the redo log back from disk. Whatever the bytes, ScanLog must
// not panic, must return a gap-free LSN run starting right after its
// cursor, and every record it trusts must re-encode to exactly the bytes it
// was read from — so a scan can never replay something the encoder would
// not have written.
func FuzzScanLog(f *testing.F) {
	gz, err := os.Open(filepath.Join("..", "ostore", "testdata", "parent_log.gz"))
	if err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(gz)
	if err != nil {
		f.Fatal(err)
	}
	golden, err := io.ReadAll(zr)
	gz.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(EncodeCursor(0))
	chain := EncodeCursor(7)
	chain = AppendRecord(chain, 8, nil)
	chain = AppendRecord(chain, 9, nil)
	f.Add(chain)
	f.Add(AppendRecord(EncodeCursor(2), 3, []PageImage{{ID: 1, Data: page(0x5A)}}))
	f.Add(AppendRecord(chain, 11, nil)) // a gap after 9
	// A 40-page record streamed in three chunk writes, as the ostore
	// flusher logs a wide group.
	streamed := &memLog{data: EncodeCursor(0)}
	if err := WriteRecord(streamed, CursorSize, 1, group(40), make([]byte, 0, RecordSize(chunkPages))); err != nil {
		f.Fatal(err)
	}
	f.Add(streamed.data)

	f.Fuzz(func(t *testing.T, data []byte) {
		cursor, records, err := ScanLog(byteLog(data))
		if err != nil {
			t.Fatalf("ScanLog over an in-memory log: %v", err)
		}
		lsn, ok := DecodeCursor(data)
		if !ok {
			if cursor != 0 || len(records) != 0 {
				t.Fatalf("no valid cursor, yet cursor=%d and %d records", cursor, len(records))
			}
			return
		}
		if lsn != cursor {
			t.Fatalf("cursor %d reported as %d", lsn, cursor)
		}
		again := EncodeCursor(cursor)
		for i, rec := range records {
			if rec.LSN != cursor+uint64(i)+1 {
				t.Fatalf("record %d has LSN %d after cursor %d", i, rec.LSN, cursor)
			}
			again = AppendRecord(again, rec.LSN, rec.Pages)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatal("the scanned cursor and records do not re-encode to the bytes they were read from")
		}
	})
}
