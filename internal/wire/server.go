package wire

import (
	"fmt"
	"net"
	"sync"

	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/storage"
)

// Server exposes one LabBase database to network clients: the connection
// core plus the primary's handlers.
type Server struct {
	connCore
	db     labbase.Store
	bridge *lbq.Bridge
	// mu arbitrates writers only: write opcodes (and their whole
	// Begin/Commit bracket) hold it, so writes run one at a time whatever
	// the store — a multi-shard store included. Read opcodes do not touch
	// it — each read entry point captures an MVCC snapshot inside the
	// store and is consistent without any server-level exclusion. It is
	// always acquired before labbase.DB's internal writer lock (see
	// DESIGN.md's lock hierarchy).
	mu sync.Mutex
}

// NewServer wraps an open store — a plain *labbase.DB, a shard member, or
// a shard.Router; the wire protocol is shard-agnostic. Site rules may be
// loaded onto the deductive engine via Bridge before serving.
func NewServer(db labbase.Store) *Server {
	s := &Server{db: db, bridge: lbq.New(db)}
	s.init(s.handle)
	s.hangup = s.releaseBracket
	return s
}

// Bridge returns the server's deductive-engine bridge (for consulting site
// rules before Serve).
func (s *Server) Bridge() *lbq.Bridge { return s.bridge }

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(ln net.Listener) error { return s.serve(ln) }

// Shutdown drains the server and returns once every connection goroutine has
// exited (the caller closes the listener). Frames the server has already
// accepted complete and their responses are flushed; blocked or future reads
// are cut off; no connection is torn down mid-response (connCore.shutdown).
func (s *Server) Shutdown() {
	s.shutdown(false)
	s.wg.Wait()
}

// inTxn runs fn inside one transaction under the server write lock and
// seals it (labbase.Seal), leaving the wait for its durability on cs for
// handle to run once the lock is released. LabBase operations validate
// their inputs before mutating anything, so on failure the (write-free)
// transaction is simply closed and the error reported; a batch that failed
// partway is closed the same way, its earlier entries recorded.
func (s *Server) inTxn(cs *connState, fn func() error) error {
	if err := s.db.Begin(); err != nil {
		return err
	}
	err := fn()
	durable, serr := labbase.Seal(s.db)
	if serr != nil {
		return joinClose(err, serr)
	}
	cs.durable = durable
	return err
}

// joinClose reports err together with the failure to close its
// transaction; with no err, the close failure alone.
func joinClose(err, cerr error) error {
	if err == nil {
		return cerr
	}
	return fmt.Errorf("%w (and closing the transaction: %w)", err, cerr)
}

// exec runs one mutation for a connection: inside an explicit bracket it
// joins the client's open transaction (the connection already holds the
// writer lock), otherwise it gets its own one-shot transaction.
func (s *Server) exec(cs *connState, fn func() error) error {
	if cs.bracket {
		return fn()
	}
	return s.inTxn(cs, fn)
}

// beginBracket opens the explicit client transaction bracket: the
// connection takes the writer lock and holds it across frames until
// OpCommit, mirroring labbase's Begin/Commit surface over the wire. The
// shard router uses this so a broadcast bracket spans every member server.
func (s *Server) beginBracket(cs *connState) error {
	if cs.bracket {
		// Nested Begin: surface the store's own diagnostic, bracket intact.
		return s.db.Begin()
	}
	s.mu.Lock() //lint:allow mutexhygiene bracket lock held across frames; released by commitBracket or releaseBracket on disconnect
	if err := s.db.Begin(); err != nil {
		s.mu.Unlock()
		return err
	}
	cs.bracket = true
	//lint:allow mutexhygiene bracket lock deliberately survives this return; released by commitBracket or releaseBracket on disconnect
	return nil
}

// commitBracket seals the bracket's transaction, releases the writer lock,
// and only then waits for durability, so the next writer runs while this
// bracket's flush is in flight. Without an open bracket it still calls
// Commit under the lock so the client sees the store's own
// ErrNoTransaction bytes.
func (s *Server) commitBracket(cs *connState) error {
	if !cs.bracket {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.db.Commit()
	}
	cs.bracket = false
	durable, err := labbase.Seal(s.db)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return durable()
}

// releaseBracket commits and unlocks a bracket abandoned by a dropped
// connection, so a client crash mid-bracket cannot wedge the server.
// Committing (not discarding) matches labbase's commit-only transaction
// model: the work already applied is published, exactly as if the client
// had committed before dying.
func (s *Server) releaseBracket(cs *connState) {
	if !cs.bracket {
		return
	}
	if err := s.commitBracket(cs); err != nil {
		s.logf("wire: commit abandoned bracket: %v", err)
	}
}

// handle executes one request (under the lock its opcode's class requires,
// see locked) and then waits out the durability of whatever transaction
// the request sealed under the writer lock: the lock is already released
// by then, so the next writer's transaction runs while this one's flush is
// in flight, but the response leaves only once the write is durable.
func (s *Server) handle(cs *connState, op uint8, payload []byte) ([]byte, error) {
	resp, err := s.locked(cs, op, payload)
	if durable := cs.durable; durable != nil {
		cs.durable = nil
		if derr := durable(); derr != nil {
			return nil, joinClose(err, derr)
		}
	}
	return resp, err
}

// locked executes one request under the lock its opcode's class (opTable)
// requires: read ops take no lock at all (their snapshot capture makes them
// consistent), write ops hold the writer lock so their transaction
// brackets stay atomic against each other, and a connection inside an
// explicit bracket already holds the writer lock across frames.
func (s *Server) locked(cs *connState, op uint8, payload []byte) ([]byte, error) {
	row := rowOf(op)
	switch class := row.class; {
	case class == classNone:
		return nil, fmt.Errorf("wire: unknown opcode %d", op)
	case class == classReplWrite:
		return nil, fmt.Errorf("wire: not a standby")
	case class == classBracket:
		// The bracket opcodes manage the writer lock themselves.
	case cs.bracket:
		// This connection holds the writer lock until OpCommit; every op it
		// sends executes inside its bracket.
	case class.lockFree():
		// The store's read entry points (and the OpQuery handler
		// explicitly) capture a snapshot and answer from it.
	default:
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return row.handle(s, cs, payload)
}

// serve is the primary's one arm: it answers a request of o's with o's
// handler, run inside the connection's transaction for a write.
func (o *op[Q, R]) serve(s *Server, cs *connState, payload []byte) ([]byte, error) {
	return o.answer(cs, payload, func(q Q) (r R, err error) {
		if o.class != classWrite {
			return o.handler(s, cs, q)
		}
		err = s.exec(cs, func() (err error) {
			r, err = o.handler(s, cs, q)
			return err
		})
		return r, err
	})
}

// answer decodes a request of o's, refusing trailing bytes, runs fn on it
// and encodes fn's reply. Both roles' handlers go through it.
func (o *op[Q, R]) answer(cs *connState, payload []byte, fn func(Q) (R, error)) ([]byte, error) {
	cs.dec.Reset(payload)
	q, err := o.req.dec(&cs.dec)
	if err == nil {
		err = cs.dec.Finish()
	}
	if err != nil {
		return nil, err
	}
	r, err := fn(q)
	if err != nil {
		return nil, err
	}
	e := reuse(&cs.enc)
	o.rep.enc(e, r)
	return e.Bytes(), nil
}

// greet answers the hello exchange for either role.
func greet(version uint64, banner string) (helloR, error) {
	if version != protocolVersion {
		return helloR{}, fmt.Errorf("wire: protocol version %d not supported", version)
	}
	return helloR{protocolVersion, banner}, nil
}

// packRecent carries a MostRecent variant's results as one reply.
func packRecent(v labbase.Value, src storage.OID, found bool, err error) (Recent, error) {
	return Recent{v, src, found}, err
}

// collect gathers copies of what a scan visits. Scans ship the full result
// list in one frame (bounded by MaxFrame); the client re-runs the caller's
// callback locally. An early-stopping callback therefore cannot shorten the
// server-side scan, which only matters for wire-level counter accounting.
func collect[T any](scan func(fn func(*T) error) error) ([]*T, error) {
	var out []*T
	err := scan(func(v *T) error {
		cp := *v
		out = append(out, &cp)
		return nil
	})
	return out, err
}

// query runs an OpQuery read-only against a snapshot captured here, so
// concurrent queries and writers never interact; update predicates are
// rejected by the bridge.
func (s *Server) query(_ *connState, q queryQ) (answers, error) {
	snap, err := s.db.Snapshot()
	if err != nil {
		return answers{}, err
	}
	defer snap.Close()
	sols, err := s.bridge.QueryOn(snap, q.text, q.max)
	return answers{sols: sols}, err
}

// shardInfo is the topology handshake and health ping: the server
// advertises which shard it holds (0 of 1 for an unsharded store), and the
// storage backend name as the router's fingerprint of the shard map.
func (s *Server) shardInfo(_ *connState, _ none) (shardInfoR, error) {
	r := shardInfoR{index: 0, count: 1}
	if si, ok := s.db.(interface{ ShardInfo() (int, int) }); ok {
		r.index, r.count = si.ShardInfo()
	}
	r.store, _ = s.db.StoreStats()
	return r, nil
}
