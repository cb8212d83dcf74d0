package repl

import (
	"errors"
	"fmt"
	"sync"

	"labflow/internal/storage/pagefile"
)

// ErrStandbyGap is returned by Apply when a shipped record's LSN is not the
// next consecutive one: the stream lost a record (or the standby was paired
// with a primary that already had history it never saw). A standby must
// refuse loudly rather than silently serve a state with holes, so pairing
// requires both sides to start from the same point — standby bootstrap from
// a live primary is future work.
//
// One duplicate is tolerated: a record whose LSN equals the last applied
// one and whose bytes match it is re-acked without being reapplied. That is
// the ack-lost shape — the primary shipped, the standby applied, and the
// transport died before the ack came back — and refusing it would wedge the
// stream forever (the primary can never learn the record landed). The same
// LSN with different bytes is still a gap: the peer is not the primary this
// standby has been following.
var ErrStandbyGap = errors.New("repl: shipped record out of sequence")

// ErrStandbyDone is returned by Apply after Promote or Close.
var ErrStandbyDone = errors.New("repl: standby no longer accepting records")

// Standby is a warm follower: it applies shipped redo records to its own
// page backing, journaling each record through the same append-log/cursor
// protocol a primary uses (so a crashed standby recovers its own tail), and
// checkpointing every few records — in place, like a primary, so the journal
// is recycled rather than truncated until Promote empties it. Promote
// finalizes the media so a real storage manager can be opened over the same
// files.
//
// Durability model: by default the journal write and the periodic backing
// sync are not fsynced before a record is acked, so the "follower holds
// every commit a client observed" guarantee covers standby process crashes
// (the kernel holds the pages; the journal tail replays on reopen) but not
// OS or power loss on the standby host, which can lose up to a checkpoint
// interval of acked records. This matches the primary's default
// (SyncLog off) and the crashtest fault model (SIGKILL, never power loss).
// SetSync(true) strengthens the ack to force the journal to stable storage
// first, at one fsync per record.
type Standby struct {
	mu      sync.Mutex
	backing pagefile.Backing
	log     *Log
	lastCRC uint32 // CRC of the last applied record's bytes...
	haveCRC bool   // ...when known (false right after open)
	applied int    // records applied this session
	done    bool
}

// NewStandby opens a standby over its media, replaying any log tail a
// previous incarnation left (the standby's own crash recovery, OpenLog, whose
// reset is unsynced) so it starts with an empty log. every <= 0 means
// DefaultCheckpointEvery.
func NewStandby(backing pagefile.Backing, log LogFile, every int) (*Standby, error) {
	l, _, records, err := OpenLog(log, backing, false, every)
	if err != nil {
		return nil, fmt.Errorf("repl: standby recovery: %w", err)
	}
	s := &Standby{backing: backing, log: l}
	if n := len(records); n > 0 {
		// Re-encoding is deterministic, so this is the fingerprint of the
		// exact bytes the primary shipped — the duplicate check survives a
		// standby restart whenever the tail record is still in the journal.
		s.lastCRC, s.haveCRC = RecordCRC(EncodeRecord(records[n-1].LSN, records[n-1].Pages)), true
	}
	return s, nil
}

// OpenFileStandby is NewStandby over path (the page backing) and path+".log"
// (the standby's journal) — the same file layout ostore.Open uses, so a
// promoted ostore standby is opened simply by its path.
func OpenFileStandby(path string, every int) (*Standby, error) {
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("repl: standby backing: %w", err)
	}
	log, err := OpenFile(path + ".log")
	if err != nil {
		fb.Close()
		return nil, err
	}
	st, err := NewStandby(fb, log, every)
	if err != nil {
		fb.Close()
		log.Close()
		return nil, err
	}
	return st, nil
}

// SetSync makes Apply force the journal to stable storage before acking
// (and makes checkpoints sync their cursor), extending the acked-commit
// guarantee from standby process crashes to standby power loss. Off by
// default — see the Standby doc comment.
func (s *Standby) SetSync(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.SetSync(on)
}

// Apply journals and applies one shipped record, returning its LSN. The
// record must carry LastLSN()+1, except that a byte-identical retransmission
// of the last applied record is re-acked without being reapplied (see
// ErrStandbyGap). Journal-then-apply: the record is in the standby's own
// log before any of its pages land, so a standby killed mid-apply replays
// the tail on reopen instead of serving a torn page set.
func (s *Standby) Apply(record []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return 0, ErrStandbyDone
	}
	rec, size, ok := DecodeRecord(record)
	if !ok || size != int64(len(record)) {
		return 0, fmt.Errorf("repl: shipped record corrupt (%d bytes)", len(record))
	}
	last := s.log.LastLSN()
	if rec.LSN == last && last > 0 {
		// Retransmission of the record just applied: the primary shipped
		// it, this standby journaled it, and the ack was lost in transport.
		// Re-ack idempotently — a primary never reuses an LSN for different
		// bytes, so matching bytes prove the record is already down. When
		// the CRC is known, different bytes are refused loudly: that shape
		// is a mispaired or diverged peer, not a lost ack.
		if s.haveCRC && RecordCRC(record) != s.lastCRC {
			return 0, fmt.Errorf("repl: record %d retransmitted with different contents: %w", rec.LSN, ErrStandbyGap)
		}
		return rec.LSN, nil
	}
	if rec.LSN != last+1 {
		return 0, fmt.Errorf("repl: got record %d after %d: %w", rec.LSN, last, ErrStandbyGap)
	}
	if err := s.log.AppendShipped(record, rec); err != nil {
		return 0, fmt.Errorf("repl: standby: %w", err)
	}
	s.lastCRC = RecordCRC(record)
	s.haveCRC = true
	s.applied++
	if err := s.log.Applied(); err != nil {
		return 0, fmt.Errorf("repl: standby: %w", err)
	}
	return rec.LSN, nil
}

// Ship implements Shipper for in-process pairing (the crashtest failover
// harness wires a primary's Options.Shipper directly to its standby).
func (s *Standby) Ship(lsn uint64, record []byte) error {
	applied, err := s.Apply(record)
	if err != nil {
		return err
	}
	if applied != lsn {
		return fmt.Errorf("repl: shipped lsn %d acked as %d: %w", lsn, applied, ErrStandbyGap)
	}
	return nil
}

// FollowerLSN implements Shipper: the standby's own last applied LSN,
// trivially, since in-process pairing has no transport to lose acks over.
func (s *Standby) FollowerLSN() (uint64, error) {
	return s.LastLSN(), nil
}

// LastLSN returns the highest LSN applied.
func (s *Standby) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.LastLSN()
}

// Applied returns the number of records applied this session.
func (s *Standby) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Promote finalizes the standby for takeover: sync the backing, checkpoint
// and sync the journal, and close both media. The caller then opens a real
// storage manager over the same path — for ostore the standby's journal IS
// the store's redo log (same protocol, same default path), so even an
// unsynced tail is recovered by the store's own open. Apply fails after
// Promote.
func (s *Standby) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return ErrStandbyDone
	}
	s.done = true
	s.log.SetSync(true) // the final checkpoint is forced down, SetSync or not
	return errors.Join(s.backing.Sync(), s.log.Close(), s.backing.Close())
}

// Close abandons the standby without finalizing (the media are closed but
// not checkpointed). Safe after Promote.
func (s *Standby) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil
	}
	s.done = true
	return errors.Join(s.backing.Close(), s.log.Abandon())
}
