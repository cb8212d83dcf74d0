package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"labflow/internal/storage/repl"
)

// StandbyServer is the network face of a warm standby: the connection core
// over a repl.Standby, speaking a deliberately tiny slice of the protocol —
// the hello exchange and the replication class (OpReplState, OpShipRecord,
// OpPromote). Every data opcode (including OpShardInfo, the router's
// handshake) is refused, so a router probing a standby's address before
// promotion sees a failed handshake, not a healthy shard.
//
// OpPromote finalizes the standby's media and shuts the server down:
// Serve returns nil, and the owning process reopens the media with a real
// storage manager behind a full Server on the same address.
type StandbyServer struct {
	connCore
	st       *repl.Standby
	promoted atomic.Bool
}

// NewStandbyServer wraps an open standby.
func NewStandbyServer(st *repl.Standby) *StandbyServer {
	s := &StandbyServer{st: st}
	s.init(s.handle)
	return s
}

// Promoted reports whether OpPromote has been served.
func (s *StandbyServer) Promoted() bool { return s.promoted.Load() }

// Serve accepts connections until the listener is closed or the standby is
// promoted. After a promotion it returns nil with the standby's media
// finalized and every connection drained.
func (s *StandbyServer) Serve(ln net.Listener) error { return s.serve(ln) }

// Shutdown closes the listener and cuts off every connection's read side,
// draining in-flight frames (as Server.Shutdown does). It does not touch
// the standby itself: an unpromoted standby stays open for the owner to
// Close or hand elsewhere.
func (s *StandbyServer) Shutdown() {
	s.shutdown(true)
	s.wg.Wait()
}

// handle executes one standby request. A served promotion makes its ack
// the connection's last response, with the server's shutdown behind it.
func (s *StandbyServer) handle(cs *connState, op uint8, payload []byte) ([]byte, error) {
	switch op {
	case OpHello:
		return opHello.answer(cs, payload, func(v uint64) (helloR, error) { return greet(v, "labflow-standby") })
	case OpReplState:
		return opReplState.answer(cs, payload, func(none) (replStateR, error) {
			return replStateR{role: 1, lastLSN: s.st.LastLSN()}, nil
		})
	case OpShipRecord:
		// The payload is the raw record encoding; Apply validates the
		// magic, CRC and LSN sequencing before journaling it.
		return opShipRecord.answer(cs, payload, s.st.Apply)
	case OpPromote:
		return opPromote.answer(cs, payload, func(none) (uint64, error) {
			if err := s.st.Promote(); err != nil {
				return 0, err
			}
			// Once the ack is flushed, take the whole server down so the
			// owner can reopen the media behind a real Server.
			cs.afterFlush = func() {
				s.promoted.Store(true)
				s.shutdown(true)
			}
			return s.st.LastLSN(), nil
		})
	}
	// Data opcodes and OpShardInfo in particular are refused so nothing
	// mistakes an unpromoted standby for a serving shard.
	return nil, fmt.Errorf("wire: standby not promoted")
}

// RemoteShipper implements repl.StateShipper over the wire: each shipped
// record becomes one OpShipRecord round trip to a StandbyServer. The
// connection is dialed lazily on first use. A transport error leaves the
// outcome ambiguous — the standby may have journaled the record with only
// the ack lost — so Ship redials once and asks OpReplState before doing
// anything else: a follower already at (or past) the shipped LSN acks the
// record without a retransmission, and only a follower still behind gets
// the record again. A remote refusal (ErrRemote — gap, corrupt record,
// standby done) is returned as-is, failing the primary's commit, because
// retrying cannot help a standby that has rejected the sequence.
type RemoteShipper struct {
	// mu serializes shipments (commits on the primary are already
	// serialized; the lock also covers lazy dialing and Close). It is a
	// lock leaf: network I/O happens under it, storage locks do not.
	mu      sync.Mutex
	addr    string
	timeout time.Duration
	c       *Client
}

// DefaultShipTimeout bounds each shipment round trip when the caller
// passes no timeout: long enough for a standby checkpoint fsync, short
// enough that a dead follower fails the commit promptly.
const DefaultShipTimeout = 10 * time.Second

var _ repl.StateShipper = (*RemoteShipper)(nil)

// NewRemoteShipper targets a standby address. No connection is made until
// the first Ship.
func NewRemoteShipper(addr string, timeout time.Duration) *RemoteShipper {
	if timeout <= 0 {
		timeout = DefaultShipTimeout
	}
	return &RemoteShipper{addr: addr, timeout: timeout}
}

// Ship implements repl.Shipper.
func (r *RemoteShipper) Ship(lsn uint64, record []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	acked, err := r.shipLocked(record)
	if err != nil && !errors.Is(err, ErrRemote) {
		// Transport failure: the record may or may not be on the standby —
		// the request could have died before arriving, or the ack on the
		// way back. Reconnect and ask before retransmitting: a blind resend
		// of an already-applied record is indistinguishable, to the
		// standby, from a diverged primary reusing the LSN, and the old
		// blind-retry behaviour wedged the stream permanently on a lost
		// ack. One reconnect, then give up and fail the commit.
		r.dropLocked()
		var last uint64
		_, last, err = r.stateLocked()
		switch {
		case err == nil && last >= lsn:
			// Applied; only the ack was lost.
			acked = lsn
		case err == nil:
			acked, err = r.shipLocked(record)
		}
	}
	if err != nil {
		if !errors.Is(err, ErrRemote) {
			r.dropLocked()
		}
		return fmt.Errorf("repl: ship lsn %d to %s: %w", lsn, r.addr, err)
	}
	if acked != lsn {
		r.dropLocked()
		return fmt.Errorf("repl: ship lsn %d to %s: acked as %d", lsn, r.addr, acked)
	}
	return nil
}

// FollowerLSN implements repl.StateShipper: one OpReplState round trip,
// redialing once after a transport error.
func (r *RemoteShipper) FollowerLSN() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, last, err := r.stateLocked()
	if err != nil && !errors.Is(err, ErrRemote) {
		r.dropLocked()
		_, last, err = r.stateLocked()
	}
	if err != nil {
		if !errors.Is(err, ErrRemote) {
			r.dropLocked()
		}
		return 0, fmt.Errorf("repl: query %s state: %w", r.addr, err)
	}
	return last, nil
}

func (r *RemoteShipper) shipLocked(record []byte) (uint64, error) {
	if err := r.dialLocked(); err != nil {
		return 0, err
	}
	return r.c.ShipRecord(record)
}

func (r *RemoteShipper) stateLocked() (role int, lastLSN uint64, err error) {
	if err := r.dialLocked(); err != nil {
		return 0, 0, err
	}
	return r.c.ReplState()
}

func (r *RemoteShipper) dialLocked() error {
	if r.c != nil {
		return nil
	}
	c, err := DialTimeout(r.addr, r.timeout)
	if err != nil {
		return err
	}
	r.c = c
	return nil
}

func (r *RemoteShipper) dropLocked() {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// Close drops the connection; a later Ship redials.
func (r *RemoteShipper) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropLocked()
	return nil
}
