package wire

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/rec"
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
	switch class := rowOf(op).class; {
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
	// dispatch reaches beginBracket's s.mu.Lock only for OpBegin, and the
	// classBracket case dispatches the bracket opcodes lock-free; the
	// may-held union cannot see that path split.
	//lint:allow lockorder bracket opcodes are dispatched lock-free by the classBracket case above
	return s.dispatch(cs, op, payload)
}

// dispatch decodes and executes one request; the caller holds the
// appropriate server lock.
func (s *Server) dispatch(cs *connState, op uint8, payload []byte) ([]byte, error) {
	d := rec.NewDecoder(payload)
	e := rec.NewEncoder(64)
	switch op {
	case OpHello:
		if err := serveHello(d, e, "labflow"); err != nil {
			return nil, err
		}

	case OpDefineMaterialClass:
		name, parent := d.String(), d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var id labbase.ClassID
		if err := s.exec(cs, func() (err error) {
			id, err = s.db.DefineMaterialClass(name, parent)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(id))

	case OpDefineState:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var id labbase.StateID
		if err := s.exec(cs, func() (err error) {
			id, err = s.db.DefineState(name)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(id))

	case OpDefineStepClass:
		name := d.String()
		n := d.Count(1 << 16)
		if d.Err() != nil {
			return nil, fmt.Errorf("wire: bad attribute count")
		}
		attrs := make([]labbase.AttrDef, 0, n)
		for i := 0; i < n; i++ {
			attrs = append(attrs, labbase.AttrDef{Name: d.String(), Kind: labbase.Kind(d.Byte())})
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var id labbase.StepClassID
		var ver labbase.Version
		if err := s.exec(cs, func() (err error) {
			id, ver, err = s.db.DefineStepClass(name, attrs)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(id))
		e.Uint(uint64(ver))

	case OpCreateMaterial:
		class, name, state := d.String(), d.String(), d.String()
		vt := d.Int()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var oid storage.OID
		if err := s.exec(cs, func() (err error) {
			oid, err = s.db.CreateMaterial(class, name, state, vt)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(oid))

	case OpCreateSet:
		members, err := decodeOIDs(d, 1<<20, "wire: bad member count")
		if err != nil {
			return nil, err
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var oid storage.OID
		if err := s.exec(cs, func() (err error) {
			oid, err = s.db.CreateMaterialSet(members)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(oid))

	case OpRecordStep:
		spec, err := decodeStepSpec(d)
		if err == nil {
			err = d.Finish()
		}
		if err != nil {
			return nil, err
		}
		var oid storage.OID
		if err := s.exec(cs, func() (err error) {
			oid, err = s.db.RecordStep(spec)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(oid))

	case OpPutSteps:
		// Batched RecordStep: the whole batch runs in one transaction
		// (amortizing the commit and, under group-commit stores, the log
		// flush) — the bracket's, or one of its own sealed like any
		// write's. The batch is not atomic: if an entry fails, earlier
		// entries stay recorded — the error names the failing index so the
		// client can tell.
		specs, err := decodeStepBatch(d)
		if err != nil {
			return nil, err
		}
		var oids []storage.OID
		if err := s.exec(cs, func() (err error) {
			oids, err = s.db.PutSteps(specs)
			return
		}); err != nil {
			return nil, err
		}
		encodeOIDs(e, oids)

	case OpSetState:
		oid := storage.OID(d.Uint())
		state := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if err := s.exec(cs, func() error { return s.db.SetState(oid, state) }); err != nil {
			return nil, err
		}

	case OpState:
		oid := storage.OID(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		st, err := s.db.State(oid)
		if err != nil {
			return nil, err
		}
		e.String(st)

	case OpHistory:
		oid := storage.OID(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		hist, err := s.db.History(oid)
		if err != nil {
			return nil, err
		}
		encodeHistory(e, hist)

	case OpGetMaterial:
		oid := storage.OID(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		m, err := s.db.GetMaterial(oid)
		if err != nil {
			return nil, err
		}
		encodeMaterial(e, m)

	case OpGetStep:
		oid := storage.OID(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		st, err := s.db.GetStep(oid)
		if err != nil {
			return nil, err
		}
		encodeStep(e, st)

	case OpCountMaterials, OpCountSteps, OpCountInState:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var n uint64
		var err error
		switch op {
		case OpCountMaterials:
			n, err = s.db.CountMaterials(name)
		case OpCountSteps:
			n, err = s.db.CountSteps(name)
		default:
			n, err = s.db.CountInState(name)
		}
		if err != nil {
			return nil, err
		}
		e.Uint(n)

	case OpMaterialsInState:
		state := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		mats, err := s.db.MaterialsInState(state)
		if err != nil {
			return nil, err
		}
		encodeOIDs(e, mats)

	case OpSetMembers, OpStepsInvolving:
		oid := storage.OID(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var oids []storage.OID
		var err error
		if op == OpSetMembers {
			oids, err = s.db.SetMembers(oid)
		} else {
			oids, err = s.db.StepsInvolving(oid)
		}
		if err != nil {
			return nil, err
		}
		encodeOIDs(e, oids)

	case OpQuery:
		q := d.String()
		max := int(d.Uint())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		// The query runs read-only against a snapshot captured here, so
		// concurrent queries and writers never interact; update predicates
		// are rejected by the bridge.
		snap, err := s.db.Snapshot()
		if err != nil {
			return nil, err
		}
		defer snap.Close()
		sols, err := s.bridge.QueryOn(snap, q, max)
		if err != nil {
			return nil, err
		}
		e.Uint(uint64(len(sols)))
		for _, sol := range sols {
			e.Uint(uint64(len(sol)))
			names := make([]string, 0, len(sol))
			for name := range sol {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				e.String(name)
				e.String(sol[name].String())
			}
		}

	case OpDump:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		st, err := s.db.Dump()
		if err != nil {
			return nil, err
		}
		e.Uint(st.Materials)
		e.Uint(st.Steps)
		e.Uint(st.AttrValues)
		e.Uint(st.HistoryRead)

	case OpStats:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		name, st := s.db.StoreStats()
		e.String(name)
		for _, f := range statsFields(&st) {
			e.Uint(*f)
		}

	case OpLookupMaterial:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		oid, found := s.db.LookupMaterial(name)
		e.Bool(found)
		e.Uint(uint64(oid))

	case OpBegin:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if err := s.beginBracket(cs); err != nil {
			return nil, err
		}

	case OpCommit:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if err := s.commitBracket(cs); err != nil {
			return nil, err
		}

	case OpShardInfo:
		// Topology handshake and health ping: the server advertises which
		// shard it holds (0 of 1 for an unsharded store), and the storage
		// backend name as the router's fingerprint of the shard map.
		if err := d.Finish(); err != nil {
			return nil, err
		}
		idx, count := 0, 1
		if si, ok := s.db.(interface{ ShardInfo() (int, int) }); ok {
			idx, count = si.ShardInfo()
		}
		name, _ := s.db.StoreStats()
		e.Uint(uint64(idx))
		e.Uint(uint64(count))
		e.String(name)

	case OpDefineAttr:
		name := d.String()
		kind := labbase.Kind(d.Byte())
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var id labbase.AttrID
		if err := s.exec(cs, func() (err error) {
			id, err = s.db.DefineAttr(name, kind)
			return
		}); err != nil {
			return nil, err
		}
		e.Uint(uint64(id))

	case OpMaterialClasses, OpStepClasses, OpStates:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var names []string
		switch op {
		case OpMaterialClasses:
			names = s.db.MaterialClasses()
		case OpStepClasses:
			names = s.db.StepClasses()
		default:
			names = s.db.States()
		}
		encodeNames(e, names)

	case OpStepClassVersions:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		vers, err := s.db.StepClassVersions(name)
		if err != nil {
			return nil, err
		}
		e.Uint(uint64(len(vers)))
		for _, v := range vers {
			encodeNames(e, v)
		}

	case OpScanMaterials, OpScanAllMaterials:
		// Scans ship the full result list in one frame (bounded by
		// MaxFrame); the client re-runs the caller's callback locally. An
		// early-stopping callback therefore cannot shorten the server-side
		// scan, which only matters for wire-level counter accounting.
		var class string
		if op == OpScanMaterials {
			class = d.String()
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var mats []*labbase.Material
		collect := func(m *labbase.Material) error {
			cp := *m
			mats = append(mats, &cp)
			return nil
		}
		var err error
		if op == OpScanMaterials {
			err = s.db.ScanMaterials(class, collect)
		} else {
			err = s.db.ScanAllMaterials(collect)
		}
		if err != nil {
			return nil, err
		}
		e.Uint(uint64(len(mats)))
		for _, m := range mats {
			encodeMaterial(e, m)
		}

	case OpScanSteps:
		class := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var steps []*labbase.Step
		err := s.db.ScanSteps(class, func(st *labbase.Step) error {
			cp := *st
			steps = append(steps, &cp)
			return nil
		})
		if err != nil {
			return nil, err
		}
		e.Uint(uint64(len(steps)))
		for _, st := range steps {
			encodeStep(e, st)
		}

	case OpMostRecent, OpMostRecentScan, OpMostRecentAsOf:
		oid := storage.OID(d.Uint())
		attr := d.String()
		var t int64
		if op == OpMostRecentAsOf {
			t = d.Int()
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		var v labbase.Value
		var src storage.OID
		var found bool
		var err error
		switch op {
		case OpMostRecent:
			v, src, found, err = s.db.MostRecent(oid, attr)
		case OpMostRecentScan:
			v, src, found, err = s.db.MostRecentScan(oid, attr)
		default:
			v, src, found, err = s.db.MostRecentAsOf(oid, attr, t)
		}
		if err != nil {
			return nil, err
		}
		encodeValueReply(e, v, src, found)

	case OpAttrTimeline:
		oid := storage.OID(d.Uint())
		attr := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		tl, err := s.db.AttrTimeline(oid, attr)
		if err != nil {
			return nil, err
		}
		e.Uint(uint64(len(tl)))
		for _, te := range tl {
			e.Int(te.ValidTime)
			e.Uint(uint64(te.Step))
			labbase.EncodeValue(e, te.Value)
		}

	case OpReplState:
		// A full server is always a primary; a StandbyServer answers role 1
		// and its applied LSN.
		if err := d.Finish(); err != nil {
			return nil, err
		}
		e.Uint(0) // role: primary
		e.Uint(0) // lastLSN: meaningless for a primary

	default:
		// A row without an arm: the bug the op-table test exists to catch.
		return nil, fmt.Errorf("wire: opcode %s has no handler", rowOf(op).name)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// serveHello answers the hello exchange for either role.
func serveHello(d *rec.Decoder, e *rec.Encoder, banner string) error {
	v := d.Uint()
	if err := d.Finish(); err != nil {
		return err
	}
	if v != protocolVersion {
		return fmt.Errorf("wire: protocol version %d not supported", v)
	}
	e.Uint(protocolVersion)
	e.String(banner)
	return nil
}
