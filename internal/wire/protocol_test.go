package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// handlerFixture is a primary over a small populated memstore, driven
// through Server.handle directly (no sockets), plus one valid request per
// opcode against that population.
type handlerFixture struct {
	srv    *Server
	db     *labbase.DB
	frames map[uint8][]byte
}

func newHandlerFixture(tb testing.TB) *handlerFixture {
	tb.Helper()
	db, err := labbase.Open(memstore.Open("optable-mm"), labbase.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(db.Begin())
	_, err = db.DefineMaterialClass("clone", "")
	must(err)
	for _, s := range []string{"waiting", "done"} {
		_, err = db.DefineState(s)
		must(err)
	}
	_, _, err = db.DefineStepClass("measure", []labbase.AttrDef{{Name: "reading", Kind: labbase.KindInt}})
	must(err)
	var mats, steps []storage.OID
	for i, name := range []string{"m0", "m1", "m2", "m3"} {
		m, err := db.CreateMaterial("clone", name, "waiting", int64(i))
		must(err)
		mats = append(mats, m)
		for j := 0; j < 2; j++ {
			s, err := db.RecordStep(measureSpec(m, int64(10*i+j)))
			must(err)
			steps = append(steps, s)
		}
	}
	set, err := db.CreateMaterialSet(mats[:2])
	must(err)
	must(db.Commit())
	return &handlerFixture{srv: NewServer(db), db: db, frames: validFrames(mats[0], set, steps[0])}
}

func measureSpec(m storage.OID, t int64) labbase.StepSpec {
	return labbase.StepSpec{
		Class: "measure", ValidTime: t,
		Materials: []storage.OID{m},
		Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(t)}},
	}
}

// validFrames builds one well-formed request per opcode.
func validFrames(mat, set, step storage.OID) map[uint8][]byte {
	spec := measureSpec(mat, 500)
	return map[uint8][]byte{
		OpHello:               frame(opHello, protocolVersion),
		OpDefineMaterialClass: frame(opDefineMaterialClass, classQ{"tclone", "clone"}),
		OpDefineState:         frame(opDefineState, "held"),
		OpDefineStepClass:     frame(opDefineStepClass, stepClassQ{"weigh", []labbase.AttrDef{{Name: "mass", Kind: labbase.KindInt}}}),
		OpCreateMaterial:      frame(opCreateMaterial, materialQ{"clone", "fresh", "waiting", 99}),
		OpCreateSet:           frame(opCreateSet, []storage.OID{mat}),
		OpRecordStep:          frame(opRecordStep, spec),
		OpSetState:            frame(opSetState, attrQ{mat, "done"}),
		OpState:               frame(opState, mat),
		OpMostRecent:          frame(opMostRecent, attrQ{mat, "reading"}),
		OpHistory:             frame(opHistory, mat),
		OpGetMaterial:         frame(opGetMaterial, mat),
		OpGetStep:             frame(opGetStep, step),
		OpCountMaterials:      frame(opCountMaterials, "clone"),
		OpCountSteps:          frame(opCountSteps, "measure"),
		OpCountInState:        frame(opCountInState, "waiting"),
		OpMaterialsInState:    frame(opMaterialsInState, "waiting"),
		OpSetMembers:          frame(opSetMembers, set),
		OpQuery:               frame(opQuery, queryQ{"state(M, waiting)", 0}),
		OpDump:                nil,
		OpStats:               nil,
		OpLookupMaterial:      frame(opLookupMaterial, "m0"),
		OpPutSteps:            frame(opPutSteps, []labbase.StepSpec{spec}),
		OpBegin:               nil,
		OpCommit:              nil,
		OpShardInfo:           nil,
		OpDefineAttr:          frame(opDefineAttr, labbase.AttrDef{Name: "note", Kind: labbase.KindString}),
		OpMaterialClasses:     nil,
		OpStepClasses:         nil,
		OpStates:              nil,
		OpStepClassVersions:   frame(opStepClassVersions, "measure"),
		OpScanMaterials:       frame(opScanMaterials, "clone"),
		OpScanAllMaterials:    nil,
		OpScanSteps:           frame(opScanSteps, "measure"),
		OpStepsInvolving:      frame(opStepsInvolving, mat),
		OpMostRecentScan:      frame(opMostRecentScan, attrQ{mat, "reading"}),
		OpMostRecentAsOf:      frame(opMostRecentAsOf, asOfQ{attrQ{mat, "reading"}, 5}),
		OpAttrTimeline:        frame(opAttrTimeline, attrQ{mat, "reading"}),
		OpShipRecord:          repl.EncodeRecord(1, nil),
		OpPromote:             nil,
		OpReplState:           nil,
	}
}

// frame encodes one request of o's.
func frame[Q, R any](o *op[Q, R], q Q) []byte {
	e := rec.NewEncoder(64)
	o.req.enc(e, q)
	return e.Bytes()
}

// mutationMark is what a read must leave unchanged: the store's published
// epoch and its object-write count.
type mutationMark struct{ epoch, writes uint64 }

func (f *handlerFixture) mark(tb testing.TB) mutationMark {
	tb.Helper()
	snap, err := f.db.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	defer snap.Close()
	_, st := f.db.StoreStats()
	return mutationMark{snap.(*labbase.Snap).Epoch(), st.Writes}
}

// opConstants parses protocol.go for the names in the Op* constant block,
// in declaration (and therefore opcode) order.
func opConstants(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if strings.HasPrefix(name.Name, "Op") {
					names = append(names, name.Name)
				}
			}
		}
	}
	return names
}

// TestOpTable walks the op table: it must agree with the Op* constants,
// every row a primary serves must hold its handler, and each class must
// behave as declared on a primary and on a standby.
func TestOpTable(t *testing.T) {
	t.Run("constants", func(t *testing.T) {
		names := opConstants(t)
		if len(names) != len(opTable)-1 {
			t.Fatalf("%d Op* constants, %d table rows", len(names), len(opTable)-1)
		}
		if rowOf(0).class != classNone || rowOf(uint8(len(opTable))).class != classNone || rowOf(255).class != classNone {
			t.Error("codes outside the constants have rows")
		}
		for i, name := range names {
			op := uint8(i + 1) // the block is iota + 1
			if row := rowOf(op); row.class == classNone || "Op"+row.name != name {
				t.Errorf("opcode %d is %s; its row is %+v", op, name, row)
			}
		}
	})

	t.Run("primary reaches a handler", func(t *testing.T) {
		// Every row a primary serves carries its arm; the replication
		// writes, which it refuses before any arm, carry none.
		for op, row := range opTable[1:] {
			if served := row.class != classReplWrite; served != (row.handle != nil) {
				t.Errorf("opcode %d (%s): served on a primary = %v, has a handler = %v", op+1, row.name, served, row.handle != nil)
			}
		}
		f := newHandlerFixture(t)
		for _, op := range []uint8{0, uint8(len(opTable)), 255} {
			if _, err := f.srv.handle(&connState{}, op, nil); err == nil || !strings.Contains(err.Error(), "wire: unknown opcode") {
				t.Errorf("opcode %d on a primary: %v, want unknown opcode", op, err)
			}
		}
	})

	t.Run("primary classes", func(t *testing.T) {
		f := newHandlerFixture(t)
		cs := &connState{} // one connection, so OpBegin's bracket meets OpCommit
		defer f.srv.releaseBracket(cs)
		for op := range opTable[1:] {
			op := uint8(op + 1)
			row := rowOf(op)
			frame, ok := f.frames[op]
			if !ok {
				t.Errorf("%s has no valid frame in validFrames", row.name)
				continue
			}
			before := f.mark(t)
			_, err := f.srv.handle(cs, op, frame)
			switch {
			case row.class == classReplWrite:
				if err == nil || err.Error() != "wire: not a standby" {
					t.Errorf("%s on a primary: %v, want wire: not a standby", row.name, err)
				}
			case err != nil:
				t.Errorf("%s with a valid frame: %v", row.name, err)
			}
			if row.class.lockFree() && f.mark(t) != before {
				t.Errorf("%s is read-class and moved the store from %+v to %+v", row.name, before, f.mark(t))
			}
		}
		// The mark does notice mutations: the walk above committed several.
		if fresh := newHandlerFixture(t); fresh.mark(t) == f.mark(t) {
			t.Error("write-class rows left the mutation mark unchanged; the read-class check is vacuous")
		}
	})

	t.Run("standby", func(t *testing.T) {
		ss := newTestStandby(t)
		frames := validFrames(storage.OID(1), storage.OID(2), storage.OID(3))
		for op := 0; op < 256; op++ {
			op := uint8(op)
			cs := &connState{}
			_, err := ss.handle(cs, op, frames[op])
			class := rowOf(op).class
			served := op == OpHello || class == classReplRead || class == classReplWrite
			refused := err != nil && err.Error() == "wire: standby not promoted"
			switch {
			case served && err != nil:
				t.Errorf("%s on a standby: %v", rowOf(op).name, err)
			case !served && !refused:
				t.Errorf("opcode %d (%s) on a standby: %v, want wire: standby not promoted", op, rowOf(op).name, err)
			}
			if (cs.afterFlush != nil) != (op == OpPromote) {
				t.Errorf("opcode %d: afterFlush set = %v", op, cs.afterFlush != nil)
			}
		}
	})
}

// memLog is an in-memory repl.LogFile for the standby fixtures.
type memLog struct{ b []byte }

func (l *memLog) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(l.b)) {
		return 0, io.EOF
	}
	n := copy(p, l.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (l *memLog) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(l.b) {
		l.b = append(l.b, make([]byte, end-len(l.b))...)
	}
	return copy(l.b[off:], p), nil
}

func (l *memLog) Truncate(size int64) error {
	if size < int64(len(l.b)) {
		l.b = l.b[:size]
	}
	return nil
}

func (l *memLog) Sync() error          { return nil }
func (l *memLog) Size() (int64, error) { return int64(len(l.b)), nil }
func (l *memLog) Close() error         { return nil }

func newTestStandby(tb testing.TB) *StandbyServer {
	tb.Helper()
	st, err := repl.NewStandby(pagefile.NewMem(), &memLog{}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ss := NewStandbyServer(st)
	ss.SetLogf(nil)
	return ss
}

// maxFuzzQuery bounds the OpQuery payloads the fuzzer runs: a query's cost
// is unbounded by design today (no step budget on the wire path), and a
// generated conjunction of generators would stall the run, not find a bug.
const maxFuzzQuery = 96

// FuzzServerHandle throws arbitrary frames at a primary's handler: nothing
// may panic, and a read-class opcode may not mutate the store whatever its
// payload.
func FuzzServerHandle(f *testing.F) {
	seeds := newHandlerFixture(f).frames // the population is deterministic, so these stay valid
	for op := 0; op < 256; op++ {
		f.Add(byte(op), seeds[uint8(op)])
	}
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		if op == OpQuery && len(payload) > maxFuzzQuery {
			t.Skip()
		}
		fx := newHandlerFixture(t)
		before := fx.mark(t)
		cs := &connState{}
		fx.srv.handle(cs, op, payload)
		fx.srv.releaseBracket(cs)
		if rowOf(op).class.lockFree() && fx.mark(t) != before {
			t.Fatalf("%s is read-class and moved the store from %+v to %+v", rowOf(op).name, before, fx.mark(t))
		}
	})
}

// FuzzStandbyHandle does the same for a standby: nothing may panic, and
// only the replication writes may move its applied LSN.
func FuzzStandbyHandle(f *testing.F) {
	seeds := validFrames(storage.OID(1), storage.OID(2), storage.OID(3))
	for op := 0; op < 256; op++ {
		f.Add(byte(op), seeds[uint8(op)])
	}
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		ss := newTestStandby(t)
		before := ss.st.LastLSN()
		ss.handle(&connState{}, op, payload)
		if rowOf(op).class != classReplWrite && ss.st.LastLSN() != before {
			t.Fatalf("opcode %d moved the standby's LSN from %d to %d", op, before, ss.st.LastLSN())
		}
	})
}
