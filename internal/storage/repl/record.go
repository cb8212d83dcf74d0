// Package repl is the replication and bounded-recovery substrate shared by
// the persistent storage managers: the LSN-sequenced redo-record encoding,
// the checkpoint cursor that retires replayed history so reopen work is
// O(delta since checkpoint), page-image snapshot slots (texas
// restore-from-checkpoint), and the warm Standby that applies shipped
// records continuously and can be promoted when a primary dies.
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
// A checkpoint (Checkpoint) does not shrink the file. After the backing has
// been synced it overwrites the cursor at offset 0, forces it down when the
// log is a synced one, and only then does the caller move its logical tail
// back to CursorSize, so the next interval's records overwrite the blocks
// the retired interval already allocated. A log fsync is then a pure data
// flush; truncating and re-extending the file made every one of them a
// file-size change the filesystem had to journal. The file is physically
// emptied only at the session boundaries (ResetLog): by the recovery
// checkpoint when a store or standby opens, and by the final checkpoint of
// Close/Promote.
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

// LogFile is a positioned-I/O medium for redo logs, checkpoint cursors and
// snapshot slots. Production use wraps an *os.File (OpenFile); tests and the
// crashtest harness substitute fault-injecting implementations.
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
	return recordHeader + int64(count)*(4+pagefile.PageSize) + 12
}

// EncodeRecord serializes one redo record into a buffer of its own. A record
// may be empty (count 0): texas ships one record per commit even when the
// commit wrote no pages, so the follower's LSN tracks the primary's commit
// count exactly.
func EncodeRecord(lsn uint64, pages []PageImage) []byte {
	return AppendRecord(make([]byte, 0, RecordSize(uint32(len(pages)))), lsn, pages)
}

// AppendRecord appends the encoding of one redo record to dst and returns
// the extended slice — EncodeRecord for a caller that owns a reusable
// buffer. The page images are copied, so the record never aliases them.
func AppendRecord(dst []byte, lsn uint64, pages []PageImage) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, pg := range pages {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pg.ID))
		dst = append(dst, pg.Data[:pagefile.PageSize]...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	dst = binary.LittleEndian.AppendUint64(dst, recordMagic)
	return dst
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

// Checkpoint retires the log's records in place: it overwrites the cursor at
// offset 0 and leaves the file's length alone. The caller must have synced
// the page backing first — after this call the retired records can never be
// replayed again — and moves its tail back to CursorSize only once
// Checkpoint has returned nil, so the next records overwrite the retired
// ones (see the package comment for why that is safe). If the cursor write
// itself tears, recovery finds an invalid head and trusts the (synced)
// backing alone, which is exactly the checkpoint state.
func Checkpoint(log LogFile, lsn uint64, sync bool) error {
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

// ResetLog is the checkpoint of a session boundary — recovery at open, the
// final checkpoint of a close or promote: it empties the file before writing
// the cursor, so no byte of an earlier session outlives it. In-place reuse
// is only sound while LSNs grow, and a reopen that finds an invalid cursor
// starts them over at 1.
func ResetLog(log LogFile, lsn uint64, sync bool) error {
	if err := log.Truncate(0); err != nil {
		return fmt.Errorf("repl: checkpoint truncate: %w", err)
	}
	return Checkpoint(log, lsn, sync)
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

// ApplyRecord writes a record's page images into the backing, growing it as
// needed. Replay is idempotent: records carry whole page images, so applying
// an already-applied record reproduces the same state.
func ApplyRecord(b pagefile.Backing, rec Record) error {
	for _, pg := range rec.Pages {
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
	// Restored reports a texas restore-from-checkpoint: the store was torn
	// and was rebuilt from the newest valid snapshot instead of refusing.
	Restored bool
	// RestoredLSN is the snapshot's commit LSN (the committed prefix the
	// restored store serves).
	RestoredLSN uint64
	// RestoredPages is the number of page images the restore wrote.
	RestoredPages int
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
// the wire shipper's state-query-before-retransmit, the storage managers'
// pending-record redelivery — is sound only because an LSN names one
// immutable byte string.
type Shipper interface {
	Ship(lsn uint64, record []byte) error
}

// StateShipper is a Shipper that can also report the follower's last
// applied LSN. A primary uses it to resolve records whose ship ended in a
// transport error: a record the follower already holds (shipped, applied,
// ack lost) is retired without retransmission, and only genuinely missing
// records are re-shipped.
type StateShipper interface {
	Shipper
	FollowerLSN() (uint64, error)
}

// ShipQueue is the primary's side of the immutable-LSN rule: the records
// that reached their local durability point but were never acked by the
// follower — a Ship that returned an error, or records replayed from the
// log by a reopen. Their LSNs are burned, so these exact bytes must reach
// the follower (or be found there already) ahead of the next record; the
// stream never reuses an LSN for different contents. The zero value is an
// empty queue. Not safe for concurrent use: each storage manager touches
// its queue only from its commit path.
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

// Resolve empties the queue through s before a new LSN goes out. When s
// can report the follower's state (StateShipper), records the follower
// already holds — applied, only the ack lost — are retired without
// retransmission; the rest are re-shipped in LSN order with their original
// bytes. Any failure leaves the unresolved tail queued and must fail the
// caller's commit.
func (q *ShipQueue) Resolve(s Shipper) error {
	if len(q.pending) == 0 {
		return nil
	}
	if sq, ok := s.(StateShipper); ok {
		last, err := sq.FollowerLSN()
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
	}
	for len(q.pending) > 0 {
		pr := q.pending[0]
		if err := s.Ship(pr.lsn, pr.rec); err != nil {
			return fmt.Errorf("re-ship record %d: %w", pr.lsn, err)
		}
		q.pending = q.pending[1:]
	}
	return nil
}
