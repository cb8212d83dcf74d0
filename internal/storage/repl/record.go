// Package repl is the replication and bounded-recovery substrate of the
// redo-logged storage manager (ostore): the LSN-sequenced redo-record
// encoding, the redo Log whose checkpoint cursor retires replayed history so
// reopen work is O(delta since checkpoint), the primary's pending-ship
// queue, and the warm Standby that applies shipped records continuously and
// can be promoted when a primary dies. A primary's log and a standby's
// journal are both a Log; it alone runs the protocol below.
//
// The log protocol is append-only within a checkpoint interval:
//
//	[cursor][record lsn=c+1][record lsn=c+2]...
//
// The cursor at offset 0 names the last LSN already durable in the page
// backing; every following record carries the next consecutive LSN, a CRC32
// over its header and page images, and a trailing magic. Recovery replays
// the contiguous valid prefix after the cursor and discards the torn tail —
// a record is only ever trusted whole.
//
// # Recycling the log in place
//
// A checkpoint (Log.Applied) does not shrink the file. After the backing
// has been synced it overwrites the cursor at offset 0, forces it down when
// the log is a synced one, and only then does the Log move its tail back to
// CursorSize, so the next interval's records overwrite the blocks the
// retired interval already allocated. A log fsync is then a pure data
// flush; truncating and re-extending the file made every one of them a
// file-size change the filesystem had to journal. The file is physically
// emptied only at the session boundaries (resetLog): by the recovery
// checkpoint of OpenLog, and by the final checkpoint of Log.Close.
//
// Retired bytes therefore stay in the file past the live tail, and ScanLog
// reads the whole file. They are never replayed, because:
//
//   - Within one open session LSNs only grow, and every byte past the live
//     tail was written in this session under an LSN no greater than the
//     current cursor. ScanLog accepts the record at the tail only if it
//     carries exactly cursor+n+1, so a retired record — even one sitting
//     precisely on a record boundary because the two generations' records
//     have the same sizes — fails the LSN test. A record that is half new
//     and half retired fails its CRC, which covers the LSN. (Bytes that are
//     not on a retired record boundary are page-image content; to be taken
//     for a record they would have to forge the magic, the CRC and the one
//     expected LSN.)
//   - The tail moves back only after the new cursor is in place (and synced,
//     for a synced log): a checkpoint whose cursor write or sync fails
//     leaves the tail where it was, and the next record is appended, not
//     overlaid. So an old cursor never coexists with a partly overwritten
//     run of the records it still vouches for — replaying only a prefix of
//     them over the newer, already synced backing would regress pages.
//   - The cursor and the head of the first record share the file's first
//     sector. A cursor rewrite is a 20-byte write inside that sector: on a
//     sector-atomic medium it lands whole or not at all, and the bytes it
//     shares the sector with belong to a record the same checkpoint retired.
//     If the cursor does tear, its CRC fails and recovery trusts the backing
//     alone — which was synced before the cursor was touched, and so is
//     exactly the checkpoint state.
//   - An invalid cursor restarts the LSN sequence at 1, which is the one case
//     where "LSNs only grow" stops holding across a reopen: a retired record
//     from the previous session could then carry an LSN the new session has
//     yet to reach. No stale byte may therefore survive into a new session,
//     and that is why opening truncates the file before it writes its
//     cursor, whatever the old cursor looked like.
//   - With an unsynced log (ostore SyncLog off, the standby's default) the
//     guarantee is the one the unsynced log always had: a process crash,
//     where the file keeps every completed write in issue order, so the
//     cursor always precedes the records that overlay its interval. Power
//     loss on an unsynced log was not covered before and is not now.
//
// The retained length is bounded: the file is never longer than CursorSize
// plus the most bytes a single checkpoint interval appended this session,
// and a clean Close or the next Open returns it to CursorSize.
//
// # A record in several writes
//
// A writer need not assemble a record to log it: WriteRecord streams the
// header, the page entries and the trailer through a bounded chunk buffer,
// so a wide record reaches the log in several writes, one after another at
// increasing offsets, and the record is durable only once the last of them
// (and, on a synced log, the sync after it) has completed. That adds no
// crash window a single write did not already have. A record counts only
// when its trailing magic and its CRC both check, and ScanLog stops at the
// first record that fails either. A crash between two chunks leaves a prefix
// of the record on the medium followed by whatever bytes were there before,
// which is exactly a single write torn at that point — the shape the crash
// harness already injects. On a fresh stretch of file the magic is missing.
// On the recycled log the bytes past the prefix may be a retired record of
// the same size at the same offset, whose magic sits exactly where the new
// record's would; the CRC still fails, because it covers the new header and
// the new prefix together with the stale remainder, which the retired
// record's CRC never saw.
//
// The same record bytes double as the shipping unit: a primary streams each
// record to its standby before the record can retire (Shipper), so the
// follower always holds every commit a client may have observed.
package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"labflow/internal/storage/pagefile"
)

// LogFile is a positioned-I/O medium for redo logs and standby journals.
// Production use wraps an *os.File (OpenFile); tests and the crashtest
// harness substitute fault-injecting implementations.
type LogFile interface {
	io.ReaderAt
	io.WriterAt
	// Truncate discards the medium's contents beyond size.
	Truncate(size int64) error
	// Sync forces the medium to stable storage.
	Sync() error
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Close releases the medium.
	Close() error
}

// osLog adapts *os.File to LogFile.
type osLog struct{ *os.File }

// Size implements LogFile.
func (l osLog) Size() (int64, error) {
	info, err := l.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// OpenFile opens (creating if necessary) a LogFile at path.
func OpenFile(path string) (LogFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repl: open %s: %w", path, err)
	}
	return osLog{f}, nil
}

const (
	// recordMagic trails every redo record; its presence proves the write
	// reached the record's end (the historical ostore commit magic).
	recordMagic = 0xC0111117C0111117
	// cursorMagic heads the checkpoint cursor at log offset 0.
	cursorMagic = 0xC8EC9017C8EC9017
	// recordHeader is the fixed prefix of a record: LSN and page count.
	recordHeader = 8 + 4
	// recordEntry is one page entry: the page ID and the page's image.
	recordEntry = 4 + pagefile.PageSize
	// recordTrailer ends a record: the CRC32 and the trailing magic.
	recordTrailer = 4 + 8
)

// CursorSize is the encoded length of a checkpoint cursor:
// magic, LSN, CRC32.
const CursorSize = 8 + 8 + 4

// PageImage is one page's full image inside a redo record.
type PageImage struct {
	ID   pagefile.PageID
	Data []byte // len PageSize; decoded images alias the record buffer
}

// Record is a decoded redo record: the page images one commit group made
// durable, under a log sequence number.
type Record struct {
	LSN   uint64
	Pages []PageImage
}

// RecordSize is the encoded length of a redo record holding count pages:
// LSN + count header, per-page id+image entries, CRC32, trailing magic.
func RecordSize(count uint32) int64 {
	return recordHeader + int64(count)*recordEntry + recordTrailer
}

// EncodeRecord serializes one redo record into a buffer of its own. A record
// may be empty (count 0): it then carries only its LSN.
func EncodeRecord(lsn uint64, pages []PageImage) []byte {
	return AppendRecord(make([]byte, 0, RecordSize(uint32(len(pages)))), lsn, pages)
}

// AppendRecord appends the encoding of one redo record to dst and returns
// the extended slice — EncodeRecord for a caller that owns a reusable
// buffer. The page images are copied, so the record never aliases them.
func AppendRecord(dst []byte, lsn uint64, pages []PageImage) []byte {
	w := recordWriter{buf: dst}
	_ = w.encode(lsn, pages) // nothing to write out, so nothing can fail
	return w.buf
}

// WriteRecord writes the encoding of one redo record into log at off without
// assembling it: the bytes go out through buf, a chunk buffer the caller
// owns, in writes of at most cap(buf) bytes each — header and page entries
// first, the CRC trailer and magic last. The bytes that land are exactly
// AppendRecord's. A buffer of RecordSize(n) bytes takes a record of up to n
// pages in one write, and a wider one in one write per n pages; a buffer
// too small for one page entry grows. Like one torn write, a record cut off
// between two of its writes fails its magic or its CRC, so ScanLog never
// trusts it (see the package comment).
func WriteRecord(log LogFile, off int64, lsn uint64, pages []PageImage, buf []byte) error {
	w := recordWriter{buf: buf[:0], log: log, off: off}
	return w.encode(lsn, pages)
}

// recordWriter is the one encoder of the record layout. It appends a
// record's bytes to buf in order, updating the CRC as each piece goes in.
// With a log set, buf is a chunk: when the next piece would overflow its
// capacity, what it holds is written to the log at off first, and the
// record's end is written out too. Without one, buf grows and ends up
// holding the record whole.
type recordWriter struct {
	buf []byte
	crc uint32
	log LogFile
	off int64
}

func (w *recordWriter) encode(lsn uint64, pages []PageImage) error {
	if err := w.reserve(recordHeader); err != nil {
		return err
	}
	start := len(w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, lsn)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(pages)))
	w.sum(start)
	for _, pg := range pages {
		if err := w.reserve(recordEntry); err != nil {
			return err
		}
		start = len(w.buf)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(pg.ID))
		w.buf = append(w.buf, pg.Data[:pagefile.PageSize]...)
		w.sum(start)
	}
	if err := w.reserve(recordTrailer); err != nil {
		return err
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, recordMagic)
	if w.log == nil {
		return nil
	}
	return w.writeOut()
}

// sum folds the bytes appended since start into the CRC.
func (w *recordWriter) sum(start int) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[start:])
}

// reserve writes the chunk out when the next n bytes would overflow it.
func (w *recordWriter) reserve(n int) error {
	if w.log == nil || len(w.buf) == 0 || len(w.buf)+n <= cap(w.buf) {
		return nil
	}
	return w.writeOut()
}

func (w *recordWriter) writeOut() error {
	if _, err := w.log.WriteAt(w.buf, w.off); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// DecodeRecord parses the record at the head of data, returning it with its
// encoded size. The trailing magic proves the write reached the record's
// end; the CRC32 (IEEE) over the header and entries proves the middle
// arrived too — a torn write can land the first and last sectors while
// losing everything between, which the magic alone cannot see. Decoded page
// images alias data.
func DecodeRecord(data []byte) (Record, int64, bool) {
	if len(data) < recordHeader {
		return Record{}, 0, false
	}
	lsn := binary.LittleEndian.Uint64(data)
	count := binary.LittleEndian.Uint32(data[8:])
	need := RecordSize(count)
	if int64(len(data)) < need {
		return Record{}, 0, false
	}
	if binary.LittleEndian.Uint64(data[need-8:]) != recordMagic {
		return Record{}, 0, false
	}
	if binary.LittleEndian.Uint32(data[need-12:]) != crc32.ChecksumIEEE(data[:need-12]) {
		return Record{}, 0, false
	}
	rec := Record{LSN: lsn}
	off := int64(recordHeader)
	for i := uint32(0); i < count; i++ {
		id := pagefile.PageID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		rec.Pages = append(rec.Pages, PageImage{ID: id, Data: data[off : off+pagefile.PageSize]})
		off += pagefile.PageSize
	}
	return rec, need, true
}

// RecordCRC returns a record's embedded CRC32 (computed over its header
// and page images) — a fingerprint of the record's contents. Note that a
// whole-record checksum would NOT work here: CRC32 of a message followed
// by its own CRC is a constant (the residue property), identical for every
// valid record.
func RecordCRC(record []byte) uint32 {
	if len(record) < 12 {
		return 0
	}
	return binary.LittleEndian.Uint32(record[len(record)-12:])
}

// EncodeCursor serializes a checkpoint cursor naming the last LSN already
// durable in the page backing.
func EncodeCursor(lsn uint64) []byte {
	buf := make([]byte, 0, CursorSize)
	buf = binary.LittleEndian.AppendUint64(buf, cursorMagic)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// DecodeCursor parses a checkpoint cursor at the head of data.
func DecodeCursor(data []byte) (uint64, bool) {
	if len(data) < CursorSize {
		return 0, false
	}
	if binary.LittleEndian.Uint64(data) != cursorMagic {
		return 0, false
	}
	if binary.LittleEndian.Uint32(data[16:]) != crc32.ChecksumIEEE(data[:16]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[8:]), true
}

// checkpoint retires the log's records in place: it overwrites the cursor at
// offset 0 and leaves the file's length alone. The backing must have been
// synced first. If the cursor write tears, recovery finds an invalid head
// and trusts the (synced) backing alone, which is the checkpoint state.
func checkpoint(log LogFile, lsn uint64, sync bool) error {
	if _, err := log.WriteAt(EncodeCursor(lsn), 0); err != nil {
		return fmt.Errorf("repl: checkpoint cursor: %w", err)
	}
	if sync {
		if err := log.Sync(); err != nil {
			return fmt.Errorf("repl: checkpoint sync: %w", err)
		}
	}
	return nil
}

// resetLog is the checkpoint of a session boundary: it empties the file
// before writing the cursor, so no byte of an earlier session outlives it.
// In-place reuse is only sound while LSNs grow, and a reopen that finds an
// invalid cursor starts them over at 1.
func resetLog(log LogFile, lsn uint64, sync bool) error {
	if err := log.Truncate(0); err != nil {
		return fmt.Errorf("repl: checkpoint truncate: %w", err)
	}
	return checkpoint(log, lsn, sync)
}

// ScanLog reads the whole log and returns the checkpoint cursor's LSN plus
// the contiguous run of valid records after it (LSNs cursor+1, cursor+2, …).
// A log without a valid cursor at offset 0 yields nothing: the protocol only
// ever appends records after a durable cursor, so an invalid head means a
// torn cursor write with no records beyond it worth trusting. The first
// invalid or out-of-sequence record ends the scan — a torn tail whose
// transaction never reached its durability point, or the retired records of
// an interval a checkpoint has since recycled.
func ScanLog(log LogFile) (cursorLSN uint64, records []Record, err error) {
	size, err := log.Size()
	if err != nil {
		return 0, nil, err
	}
	if size == 0 {
		return 0, nil, nil
	}
	data := make([]byte, size)
	n, err := log.ReadAt(data, 0)
	if err != nil && err != io.EOF {
		return 0, nil, err
	}
	// Only the bytes actually delivered may be validated: a short read
	// returns fewer than Size reported, and the slack beyond n is not log
	// content.
	data = data[:n]
	cursorLSN, ok := DecodeCursor(data)
	if !ok {
		return 0, nil, nil
	}
	off := int64(CursorSize)
	next := cursorLSN + 1
	for off < int64(len(data)) {
		rec, sz, ok := DecodeRecord(data[off:])
		if !ok || rec.LSN != next {
			break
		}
		records = append(records, rec)
		off += sz
		next++
	}
	return cursorLSN, records, nil
}

// applyRecord writes a record's page images into the backing, growing it as
// needed. Replay is idempotent: records carry whole page images, so applying
// an already-applied record reproduces the same state.
func applyRecord(b pagefile.Backing, pages []PageImage) error {
	for _, pg := range pages {
		for b.NumPages() <= uint32(pg.ID) {
			if _, err := b.Grow(); err != nil {
				return err
			}
		}
		if err := b.WritePage(pg.ID, pg.Data); err != nil {
			return err
		}
	}
	return nil
}

// RecoveryInfo reports what a reopen had to do, so callers (and the
// crashtest harness) can assert recovery work is bounded by the checkpoint
// interval instead of the store's whole history.
type RecoveryInfo struct {
	// CheckpointLSN is the cursor found in the log (0 if none).
	CheckpointLSN uint64
	// Replayed is the number of redo records replayed past the checkpoint.
	Replayed int
	// NextLSN is the first LSN the reopened store will assign.
	NextLSN uint64
}

// Shipper receives each redo record at its durability point, before the
// record can retire. Ship must not return until the follower has applied
// (acked) the record: a commit only reports success once its record is on
// the standby, which is what makes the promoted follower's state a superset
// of everything any client observed as committed.
//
// record is only valid for the duration of the call: a primary encodes into
// a buffer it reuses for the next commit, so an implementation that needs
// the bytes afterwards must copy them.
//
// Callers must never reuse an LSN for different bytes: once Ship has been
// attempted for (lsn, record) — even if it returned an error — any later
// Ship of that LSN must carry the identical record. A failed ship is
// ambiguous (the follower may have applied the record with only the ack
// lost), and the whole retry protocol — the standby's idempotent re-ack,
// the wire shipper's state-query-before-retransmit, the primary's
// pending-record redelivery (ShipQueue) — is sound only because an LSN names
// one immutable byte string.
//
// FollowerLSN reports the follower's last applied LSN. A primary uses it to
// resolve records whose ship ended in a transport error: a record the
// follower already holds (shipped, applied, ack lost) is retired without
// retransmission, and only genuinely missing records are re-shipped.
type Shipper interface {
	Ship(lsn uint64, record []byte) error
	FollowerLSN() (uint64, error)
}

// ShipQueue is the primary's side of the immutable-LSN rule: the records
// that reached their local durability point but were never acked by the
// follower — a Ship that returned an error, or records replayed from the
// log by a reopen. Their LSNs are burned, so these exact bytes must reach
// the follower (or be found there already) ahead of the next record; the
// stream never reuses an LSN for different contents. The zero value is an
// empty queue. Not safe for concurrent use: ostore touches its queue only
// from its commit path.
type ShipQueue struct {
	pending []pendingRecord
}

type pendingRecord struct {
	lsn uint64
	rec []byte
}

// Add queues record under its burned LSN. The queue keeps the slice, so a
// caller that reuses its encode buffer must pass a copy.
func (q *ShipQueue) Add(lsn uint64, record []byte) {
	q.pending = append(q.pending, pendingRecord{lsn: lsn, rec: record})
}

// Resolve empties the queue through s before a new LSN goes out. Records
// the follower already holds (s.FollowerLSN) — applied, only the ack lost —
// are retired without retransmission; the rest are re-shipped in LSN order
// with their original bytes. Any failure leaves the unresolved tail queued
// and must fail the caller's commit.
func (q *ShipQueue) Resolve(s Shipper) error {
	if len(q.pending) == 0 {
		return nil
	}
	last, err := s.FollowerLSN()
	if err != nil {
		return fmt.Errorf("query follower state: %w", err)
	}
	kept := q.pending[:0]
	for _, pr := range q.pending {
		if pr.lsn > last {
			kept = append(kept, pr)
		}
	}
	q.pending = kept
	for len(q.pending) > 0 {
		pr := q.pending[0]
		if err := s.Ship(pr.lsn, pr.rec); err != nil {
			return fmt.Errorf("re-ship record %d: %w", pr.lsn, err)
		}
		q.pending = q.pending[1:]
	}
	return nil
}
