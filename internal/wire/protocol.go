// Package wire implements the LabBase data-server protocol: a length-prefixed
// binary request/response protocol over TCP through which clients track
// workflow activity and query the event history.
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

// repl reports whether the class belongs to the replication protocol.
func (c opClass) repl() bool { return c == classReplRead || c == classReplWrite }

// opRow is what the protocol declares about one opcode; the handlers stay
// switch arms in Server.dispatch and StandbyServer.handle.
type opRow struct {
	name  string
	class opClass
}

// opTable declares every opcode once, indexed by code.
var opTable = [...]opRow{
	OpHello:               {"Hello", classRead},
	OpDefineMaterialClass: {"DefineMaterialClass", classWrite},
	OpDefineState:         {"DefineState", classWrite},
	OpDefineStepClass:     {"DefineStepClass", classWrite},
	OpCreateMaterial:      {"CreateMaterial", classWrite},
	OpCreateSet:           {"CreateSet", classWrite},
	OpRecordStep:          {"RecordStep", classWrite},
	OpSetState:            {"SetState", classWrite},
	OpState:               {"State", classRead},
	OpMostRecent:          {"MostRecent", classRead},
	OpHistory:             {"History", classRead},
	OpGetMaterial:         {"GetMaterial", classRead},
	OpGetStep:             {"GetStep", classRead},
	OpCountMaterials:      {"CountMaterials", classRead},
	OpCountSteps:          {"CountSteps", classRead},
	OpCountInState:        {"CountInState", classRead},
	OpMaterialsInState:    {"MaterialsInState", classRead},
	OpSetMembers:          {"SetMembers", classRead},
	OpQuery:               {"Query", classRead},
	OpDump:                {"Dump", classRead},
	OpStats:               {"Stats", classRead},
	OpLookupMaterial:      {"LookupMaterial", classRead},
	OpPutSteps:            {"PutSteps", classWrite},
	OpBegin:               {"Begin", classBracket},
	OpCommit:              {"Commit", classBracket},
	OpShardInfo:           {"ShardInfo", classRead},
	OpDefineAttr:          {"DefineAttr", classWrite},
	OpMaterialClasses:     {"MaterialClasses", classRead},
	OpStepClasses:         {"StepClasses", classRead},
	OpStates:              {"States", classRead},
	OpStepClassVersions:   {"StepClassVersions", classRead},
	OpScanMaterials:       {"ScanMaterials", classRead},
	OpScanAllMaterials:    {"ScanAllMaterials", classRead},
	OpScanSteps:           {"ScanSteps", classRead},
	OpStepsInvolving:      {"StepsInvolving", classRead},
	OpMostRecentScan:      {"MostRecentScan", classRead},
	OpMostRecentAsOf:      {"MostRecentAsOf", classRead},
	OpAttrTimeline:        {"AttrTimeline", classRead},
	OpShipRecord:          {"ShipRecord", classReplWrite},
	OpPromote:             {"Promote", classReplWrite},
	OpReplState:           {"ReplState", classReplRead},
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
