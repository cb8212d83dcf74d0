// Package wire implements the LabBase data-server protocol: a length-prefixed
// binary request/response protocol over TCP (or any net.Conn, net.Pipe
// included) through which clients track workflow activity and query the
// event history.
//
// The paper's LabBase server is, in Carey et al.'s terminology, a
// "client-level server": one process owning the storage manager, with lab
// applications connecting as clients. This package provides that process
// (Server) and its Go client (Client). The server executes every update in
// its own transaction and serializes all writes across connections, as the
// operational server did; read-class operations (see opTable) take no
// server lock at all — each captures an MVCC snapshot inside the store and
// runs against it, so a fleet of read-heavy clients never contends with
// writers or with each other.
//
// Frame format (both directions):
//
//	u32 little-endian payload length (including the opcode byte)
//	u8  opcode (request) or status (response; 0 = ok, 1 = error)
//	... payload, encoded with internal/rec
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// Protocol opcodes.
const (
	OpHello uint8 = iota + 1
	OpDefineMaterialClass
	OpDefineState
	OpDefineStepClass
	OpCreateMaterial
	OpCreateSet
	OpRecordStep
	OpSetState
	OpState
	OpMostRecent
	OpHistory
	OpGetMaterial
	OpGetStep
	OpCountMaterials
	OpCountSteps
	OpCountInState
	OpMaterialsInState
	OpSetMembers
	OpQuery
	OpDump
	OpStats
	OpLookupMaterial
	OpPutSteps
	OpBegin
	OpCommit
	OpShardInfo
	OpDefineAttr
	OpMaterialClasses
	OpStepClasses
	OpStates
	OpStepClassVersions
	OpScanMaterials
	OpScanAllMaterials
	OpScanSteps
	OpStepsInvolving
	OpMostRecentScan
	OpMostRecentAsOf
	OpAttrTimeline
	OpShipRecord
	OpPromote
	OpReplState
)

// opClass is an opcode's lock discipline on a primary and its visibility on
// a standby.
type opClass uint8

const (
	// classNone is a code with no row: an unknown opcode.
	classNone opClass = iota
	// classRead ops never mutate the database or the deductive engine; they
	// answer from an MVCC snapshot the store captures internally and run
	// with no server lock at all. OpQuery is one: resolution is re-entrant
	// (all per-query engine state lives in the query context) and update
	// predicates are rejected.
	classRead
	// classWrite ops run in a transaction of their own under the exclusive
	// writer lock, or join the connection's open bracket.
	classWrite
	// classBracket ops (OpBegin, OpCommit) take and release the writer lock
	// themselves, holding it across frames.
	classBracket
	// classReplRead and classReplWrite are the replication opcodes, the
	// only ones besides OpHello a standby serves. A primary answers the
	// read as a classRead op and refuses the writes.
	classReplRead
	classReplWrite
)

// lockFree reports whether a primary runs the class without the writer lock.
func (c opClass) lockFree() bool { return c == classRead || c == classReplRead }

// op is one opcode's descriptor: its code, name and class, the layouts of
// its request and reply, and the primary's handler. The server's generic
// arm (op.serve), the client's call and the pipeline's futures all read
// it, so an opcode is spelled once.
type op[Q, R any] struct {
	code    uint8
	name    string
	class   opClass
	req     codec[Q]
	rep     codec[R]
	handler handler[Q, R]
	// check, when set, vets a decoded reply against its request.
	check func(Q, R) error
}

// handler executes one decoded request on a primary. A write's handler
// runs inside the connection's transaction (Server.exec).
type handler[Q, R any] func(s *Server, cs *connState, q Q) (R, error)

// def declares one opcode's descriptor.
func def[Q, R any](code uint8, name string, class opClass, req codec[Q], rep codec[R], h handler[Q, R]) *op[Q, R] {
	return &op[Q, R]{code: code, name: name, class: class, req: req, rep: rep, handler: h}
}

// checked sets the descriptor's reply check.
func (o *op[Q, R]) checked(check func(Q, R) error) *op[Q, R] {
	o.check = check
	return o
}

// onDB makes a store method that takes the request whole a handler, so
// most rows name a method expression such as labbase.Store.State.
func onDB[Q, R any](f func(labbase.Store, Q) (R, error)) handler[Q, R] {
	return func(s *Server, _ *connState, q Q) (R, error) { return f(s.db, q) }
}

// catalog makes a catalog listing a handler.
func catalog(f func(labbase.Store) []string) handler[none, []string] {
	return func(s *Server, _ *connState, _ none) ([]string, error) { return f(s.db), nil }
}

// The descriptors, one per opcode. The replication writes have no primary
// handler: a primary refuses them, and a StandbyServer serves them itself.
var (
	opHello = def(OpHello, "Hello", classRead, u64C, helloC,
		func(_ *Server, _ *connState, v uint64) (helloR, error) { return greet(v, "labflow") })
	opDefineMaterialClass = def(OpDefineMaterialClass, "DefineMaterialClass", classWrite, classC, uintC[labbase.ClassID](),
		func(s *Server, _ *connState, q classQ) (labbase.ClassID, error) {
			return s.db.DefineMaterialClass(q.name, q.parent)
		})
	opDefineState     = def(OpDefineState, "DefineState", classWrite, stringC, uintC[labbase.StateID](), onDB(labbase.Store.DefineState))
	opDefineStepClass = def(OpDefineStepClass, "DefineStepClass", classWrite, stepClassC, stepClassRC,
		func(s *Server, _ *connState, q stepClassQ) (r stepClassR, err error) {
			r.id, r.ver, err = s.db.DefineStepClass(q.name, q.attrs)
			return r, err
		})
	opCreateMaterial = def(OpCreateMaterial, "CreateMaterial", classWrite, materialQC, oidC,
		func(s *Server, _ *connState, q materialQ) (storage.OID, error) {
			return s.db.CreateMaterial(q.class, q.name, q.state, q.validTime)
		})
	opCreateSet  = def(OpCreateSet, "CreateSet", classWrite, oidsC(1<<20, "wire: bad member count"), oidC, onDB(labbase.Store.CreateMaterialSet))
	opRecordStep = def(OpRecordStep, "RecordStep", classWrite, stepSpecC, oidC, onDB(labbase.Store.RecordStep))
	opSetState   = def(OpSetState, "SetState", classWrite, attrC, noneC,
		func(s *Server, _ *connState, q attrQ) (none, error) { return none{}, s.db.SetState(q.oid, q.attr) })
	opState      = def(OpState, "State", classRead, oidC, stringC, onDB(labbase.Store.State))
	opMostRecent = def(OpMostRecent, "MostRecent", classRead, attrC, recentC,
		func(s *Server, _ *connState, q attrQ) (Recent, error) {
			return packRecent(s.db.MostRecent(q.oid, q.attr))
		})
	opHistory          = def(OpHistory, "History", classRead, oidC, historyC, onDB(labbase.Store.History))
	opGetMaterial      = def(OpGetMaterial, "GetMaterial", classRead, oidC, materialC, onDB(labbase.Store.GetMaterial))
	opGetStep          = def(OpGetStep, "GetStep", classRead, oidC, stepC, onDB(labbase.Store.GetStep))
	opCountMaterials   = def(OpCountMaterials, "CountMaterials", classRead, stringC, u64C, onDB(labbase.Store.CountMaterials))
	opCountSteps       = def(OpCountSteps, "CountSteps", classRead, stringC, u64C, onDB(labbase.Store.CountSteps))
	opCountInState     = def(OpCountInState, "CountInState", classRead, stringC, u64C, onDB(labbase.Store.CountInState))
	opMaterialsInState = def(OpMaterialsInState, "MaterialsInState", classRead, stringC, oidsC(1<<24, "wire: bad state reply"), onDB(labbase.Store.MaterialsInState))
	opSetMembers       = def(OpSetMembers, "SetMembers", classRead, oidC, oidsC(1<<24, "wire: bad set reply"), onDB(labbase.Store.SetMembers))
	opQuery            = def(OpQuery, "Query", classRead, queryC, answersC, (*Server).query)
	opDump             = def(OpDump, "Dump", classRead, noneC, dumpC,
		func(s *Server, _ *connState, _ none) (labbase.DumpStats, error) { return s.db.Dump() })
	opStats = def(OpStats, "Stats", classRead, noneC, statsC,
		func(s *Server, _ *connState, _ none) (statsR, error) {
			name, st := s.db.StoreStats()
			return statsR{name, st}, nil
		})
	opLookupMaterial = def(OpLookupMaterial, "LookupMaterial", classRead, stringC, lookupC,
		func(s *Server, _ *connState, name string) (lookupR, error) {
			oid, found := s.db.LookupMaterial(name)
			return lookupR{oid, found}, nil
		})
	// Batched RecordStep: the whole batch runs in one transaction
	// (amortizing the commit and, under group-commit stores, the log flush)
	// — the bracket's, or one of its own sealed like any write's. The batch
	// is not atomic: if an entry fails, earlier entries stay recorded — the
	// error names the failing index so the client can tell.
	opPutSteps = def(OpPutSteps, "PutSteps", classWrite, stepBatchC, oidsC(maxStepBatch, "wire: bad step batch reply"),
		onDB(labbase.Store.PutSteps)).checked(oneOIDPerSpec)
	opBegin = def(OpBegin, "Begin", classBracket, noneC, noneC,
		func(s *Server, cs *connState, _ none) (none, error) { return none{}, s.beginBracket(cs) })
	opCommit = def(OpCommit, "Commit", classBracket, noneC, noneC,
		func(s *Server, cs *connState, _ none) (none, error) { return none{}, s.commitBracket(cs) })
	opShardInfo  = def(OpShardInfo, "ShardInfo", classRead, noneC, shardInfoC, (*Server).shardInfo)
	opDefineAttr = def(OpDefineAttr, "DefineAttr", classWrite, attrDefC, uintC[labbase.AttrID](),
		func(s *Server, _ *connState, a labbase.AttrDef) (labbase.AttrID, error) {
			return s.db.DefineAttr(a.Name, a.Kind)
		})
	opMaterialClasses   = def(OpMaterialClasses, "MaterialClasses", classRead, noneC, catalogC, catalog(labbase.Store.MaterialClasses))
	opStepClasses       = def(OpStepClasses, "StepClasses", classRead, noneC, catalogC, catalog(labbase.Store.StepClasses))
	opStates            = def(OpStates, "States", classRead, noneC, catalogC, catalog(labbase.Store.States))
	opStepClassVersions = def(OpStepClassVersions, "StepClassVersions", classRead, stringC, versionsC, onDB(labbase.Store.StepClassVersions))
	opScanMaterials     = def(OpScanMaterials, "ScanMaterials", classRead, stringC, materialsC,
		func(s *Server, _ *connState, class string) ([]*labbase.Material, error) {
			return collect(func(fn func(*labbase.Material) error) error { return s.db.ScanMaterials(class, fn) })
		})
	opScanAllMaterials = def(OpScanAllMaterials, "ScanAllMaterials", classRead, noneC, materialsC,
		func(s *Server, _ *connState, _ none) ([]*labbase.Material, error) {
			return collect(s.db.ScanAllMaterials)
		})
	opScanSteps = def(OpScanSteps, "ScanSteps", classRead, stringC, stepsC,
		func(s *Server, _ *connState, class string) ([]*labbase.Step, error) {
			return collect(func(fn func(*labbase.Step) error) error { return s.db.ScanSteps(class, fn) })
		})
	opStepsInvolving = def(OpStepsInvolving, "StepsInvolving", classRead, oidC, oidsC(1<<24, "wire: bad steps reply"), onDB(labbase.Store.StepsInvolving))
	opMostRecentScan = def(OpMostRecentScan, "MostRecentScan", classRead, attrC, recentC,
		func(s *Server, _ *connState, q attrQ) (Recent, error) {
			return packRecent(s.db.MostRecentScan(q.oid, q.attr))
		})
	opMostRecentAsOf = def(OpMostRecentAsOf, "MostRecentAsOf", classRead, asOfC, recentC,
		func(s *Server, _ *connState, q asOfQ) (Recent, error) {
			return packRecent(s.db.MostRecentAsOf(q.oid, q.attr, q.t))
		})
	opAttrTimeline = def(OpAttrTimeline, "AttrTimeline", classRead, attrC, timelineC,
		func(s *Server, _ *connState, q attrQ) ([]labbase.TimelineEntry, error) {
			return s.db.AttrTimeline(q.oid, q.attr)
		})
	opShipRecord = def(OpShipRecord, "ShipRecord", classReplWrite, rawC, u64C, nil)
	opPromote    = def(OpPromote, "Promote", classReplWrite, noneC, u64C, nil)
	// A full server is always a primary: role 0, and no applied LSN.
	opReplState = def(OpReplState, "ReplState", classReplRead, noneC, replStateC,
		func(*Server, *connState, none) (replStateR, error) { return replStateR{}, nil })
)

// opRow is what the connection core and the server read of one opcode: its
// name, its class and the primary's arm, nil where the primary serves none.
type opRow struct {
	name   string
	class  opClass
	handle func(s *Server, cs *connState, payload []byte) ([]byte, error)
}

func (o *op[Q, R]) row() (uint8, opRow) {
	r := opRow{name: o.name, class: o.class}
	if o.handler != nil {
		r.handle = o.serve
	}
	return o.code, r
}

// opTable holds every opcode's row, indexed by code.
var opTable = rows(
	opHello, opDefineMaterialClass, opDefineState, opDefineStepClass, opCreateMaterial, opCreateSet,
	opRecordStep, opSetState, opState, opMostRecent, opHistory, opGetMaterial, opGetStep,
	opCountMaterials, opCountSteps, opCountInState, opMaterialsInState, opSetMembers, opQuery,
	opDump, opStats, opLookupMaterial, opPutSteps, opBegin, opCommit, opShardInfo, opDefineAttr,
	opMaterialClasses, opStepClasses, opStates, opStepClassVersions, opScanMaterials,
	opScanAllMaterials, opScanSteps, opStepsInvolving, opMostRecentScan, opMostRecentAsOf,
	opAttrTimeline, opShipRecord, opPromote, opReplState,
)

func rows(ops ...interface{ row() (uint8, opRow) }) []opRow {
	table := make([]opRow, len(ops)+1)
	for _, o := range ops {
		code, r := o.row()
		table[code] = r
	}
	return table
}

// rowOf returns op's table row, the zero row for a code the table lacks.
func rowOf(op uint8) opRow {
	if int(op) >= len(opTable) {
		return opRow{}
	}
	return opTable[op]
}

const (
	statusOK  uint8 = 0
	statusErr uint8 = 1
)

// MaxFrame bounds a single frame (16 MiB) to keep a bad peer from forcing
// huge allocations.
const MaxFrame = 16 << 20

// writeFrame sends one frame: tag (opcode or status) plus payload.
func writeFrame(w io.Writer, tag uint8, payload []byte) error {
	var hdr [5]byte
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload)+1)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)+1))
	hdr[4] = tag
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, returning the tag and payload.
func readFrame(r io.Reader) (uint8, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// protocolVersion is checked in the hello exchange. Version 2 added the
// explicit transaction bracket (OpBegin/OpCommit), the shard-topology
// handshake (OpShardInfo), the catalog/scan/timeline opcodes, structured
// error frames ([code u8][message]; see errors.go) and the structured
// OpPutSteps reply carrying the failing batch index. Version 3 added the
// replication opcodes (OpShipRecord/OpPromote/OpReplState) and with them
// the warm-standby role: a StandbyServer speaks only the hello exchange,
// OpReplState, OpShipRecord and OpPromote until promoted.
const protocolVersion = 3
