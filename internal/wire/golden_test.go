package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
)

// recordingConn keeps every byte a client writes and reads, so a test can
// split them back into frames.
type recordingConn struct {
	net.Conn
	sent, got []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.sent = append(c.sent, p...)
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got = append(c.got, p[:n]...)
	return n, err
}

// splitFrames cuts a recorded byte stream at its length prefixes.
func splitFrames(tb testing.TB, b []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			tb.Fatalf("%d stray bytes after the last frame", len(b))
		}
		n := 4 + int(binary.LittleEndian.Uint32(b))
		if n > len(b) {
			tb.Fatalf("frame of %d bytes, %d recorded", n, len(b))
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// dump writes the frames recorded since the last dump, each request tagged
// by its opcode's row name and each reply by its request's.
func (c *recordingConn) dump(tb testing.TB, b *strings.Builder) {
	tb.Helper()
	reqs, reps := splitFrames(tb, c.sent), splitFrames(tb, c.got)
	if len(reqs) != len(reps) {
		tb.Fatalf("%d requests, %d replies", len(reqs), len(reps))
	}
	for i, req := range reqs {
		name := rowOf(req[4]).name
		fmt.Fprintf(b, "%s > %x\n%s < %x\n", name, req, name, reps[i])
	}
	c.sent, c.got = nil, nil
}

// replyFrame frames a handler's result as the connection core would send it.
func replyFrame(resp []byte, err error) []byte {
	status := statusOK
	if err != nil {
		e := rec.NewEncoder(64)
		encodeRemoteErr(e, err)
		status, resp = statusErr, e.Bytes()
	}
	var buf bytes.Buffer
	writeFrame(&buf, status, resp)
	return buf.Bytes()
}

// TestFrameGolden pins the protocol's bytes. Every Client method, and five
// more requests with PutSteps split, run once against a handler fixture's server over
// net.Pipe; then each opcode's empty payload, and its valid payload cut
// short by one byte, go through a primary's and a standby's handle. Every
// request, reply and error frame lands in testdata/frames.golden as hex,
// tagged by its opcode's row name, beside what each Client call returned: a
// change meant to keep the protocol must leave the file byte-identical.
// Regenerate deliberately with UPDATE_GOLDEN=1.
func TestFrameGolden(t *testing.T) {
	var b strings.Builder
	goldenClient(t, &b)
	goldenHandlers(t, &b)

	got := b.String()
	path := filepath.Join("testdata", "frames.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("frames drifted from golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("frames drifted from golden: %d lines, want %d", len(gl), len(wl))
	}
}

// goldenClient drives every Client method, then five more requests with
// PutSteps split, over net.Pipe.
func goldenClient(t *testing.T, b *strings.Builder) {
	f := newHandlerFixture(t)
	oidIn := func(op uint8) storage.OID { return storage.OID(rec.NewDecoder(f.frames[op]).Uint()) }
	mat, set, step := oidIn(OpState), oidIn(OpSetMembers), oidIn(OpGetStep)

	cconn, sconn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.srv.serveConn(sconn)
	}()
	rc := &recordingConn{Conn: cconn}
	c, err := NewClient(rc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		<-done
	}()
	rc.dump(t, b)

	// call records one Client call's frames and what it returned.
	call := func(name string, results ...any) {
		t.Helper()
		rc.dump(t, b)
		fmt.Fprintf(b, "%s =", name)
		for _, r := range results {
			fmt.Fprintf(b, " %+v", r)
		}
		b.WriteString("\n")
	}
	var mats []labbase.Material
	var steps []labbase.Step
	collectMat := func(m *labbase.Material) error { mats = append(mats, *m); return nil }
	collectStep := func(st *labbase.Step) error { steps = append(steps, *st); return nil }
	spec := measureSpec(mat, 600)

	{
		i, n, s, err := c.ShardInfo()
		call("ShardInfo", i, n, s, err)
	}
	{
		r, err := c.State(mat)
		call("State", r, err)
	}
	{
		v, src, ok, err := c.MostRecent(mat, "reading")
		call("MostRecent", v, src, ok, err)
		v, src, ok, err = c.MostRecentScan(mat, "reading")
		call("MostRecentScan", v, src, ok, err)
		v, src, ok, err = c.MostRecentAsOf(mat, "reading", 0)
		call("MostRecentAsOf", v, src, ok, err)
	}
	{
		r, err := c.History(mat)
		call("History", r, err)
	}
	{
		r, err := c.GetMaterial(mat)
		call("GetMaterial", r, err)
	}
	{
		r, err := c.GetStep(step)
		call("GetStep", r, err)
	}
	for _, q := range []struct {
		name string
		fn   func(string) (uint64, error)
		arg  string
	}{{"CountMaterials", c.CountMaterials, "clone"}, {"CountSteps", c.CountSteps, "measure"}, {"CountInState", c.CountInState, "waiting"}} {
		r, err := q.fn(q.arg)
		call(q.name, r, err)
	}
	{
		r, err := c.MaterialsInState("waiting")
		call("MaterialsInState", r, err)
		r, err = c.SetMembers(set)
		call("SetMembers", r, err)
		r, err = c.StepsInvolving(mat)
		call("StepsInvolving", r, err)
	}
	{
		oid, ok, err := c.LookupMaterial("m1")
		call("LookupMaterial", oid, ok, err)
	}
	{
		r, err := c.Query("state(M, waiting)", 0)
		call("Query", r, err)
	}
	{
		r, err := c.Dump()
		call("Dump", r, err)
	}
	{
		r, err := c.MaterialClasses()
		call("MaterialClasses", r, err)
		r, err = c.StepClasses()
		call("StepClasses", r, err)
		r, err = c.States()
		call("States", r, err)
	}
	{
		r, err := c.StepClassVersions("measure")
		call("StepClassVersions", r, err)
	}
	{
		err := c.ScanMaterials("clone", collectMat)
		call("ScanMaterials", mats, err)
		mats = nil
		err = c.ScanAllMaterials(collectMat)
		call("ScanAllMaterials", mats, err)
		err = c.ScanSteps("measure", collectStep)
		call("ScanSteps", steps, err)
	}
	{
		r, err := c.AttrTimeline(mat, "reading")
		call("AttrTimeline", r, err)
	}
	{
		r, err := c.DefineMaterialClass("tclone", "clone")
		call("DefineMaterialClass", r, err)
	}
	{
		r, err := c.DefineAttr("note", labbase.KindString)
		call("DefineAttr", r, err)
	}
	{
		r, err := c.DefineState("held")
		call("DefineState", r, err)
	}
	{
		id, ver, err := c.DefineStepClass("weigh", []labbase.AttrDef{{Name: "mass", Kind: labbase.KindInt}})
		call("DefineStepClass", id, ver, err)
	}
	{
		r, err := c.CreateMaterial("clone", "fresh", "waiting", 99)
		call("CreateMaterial", r, err)
		r, err = c.CreateMaterialSet([]storage.OID{mat, r})
		call("CreateMaterialSet", r, err)
		r, err = c.RecordStep(spec)
		call("RecordStep", r, err)
	}
	{
		r, err := c.PutSteps([]labbase.StepSpec{spec, measureSpec(mat, 601)})
		call("PutSteps", r, err)
	}
	call("Begin", c.Begin())
	call("SetState", c.SetState(mat, "done"))
	call("Commit", c.Commit())
	{
		r, err := c.ShipRecord([]byte{1, 2, 3})
		call("ShipRecord", r, err)
	}
	call("Promote", c.Promote())
	{
		role, lsn, err := c.ReplState()
		call("ReplState", role, lsn, err)
	}
	{
		name, st, err := c.Stats()
		call("Stats", name, st, err)
	}
	// A remote error and a decode-side failure.
	{
		r, err := c.State(storage.MakeOID(storage.SegMaterial, 9999))
		call("State", r, err)
		r2, err := c.PutSteps([]labbase.StepSpec{spec, {Class: "nosuch"}})
		call("PutSteps", r2, err)
	}

	// Five more frames, not logged as calls, with PutSteps split.
	_, _, _, err1 := c.MostRecent(mat, "reading")
	_, err2 := c.State(mat)
	_, err3 := c.History(mat)
	_, err4 := c.StartPutSteps([]labbase.StepSpec{measureSpec(mat, 700)})()
	_, err5 := c.RecordStep(measureSpec(mat, 701))
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		t.Fatal(err)
	}
	rc.dump(t, b)
}

// goldenHandlers sends each opcode's empty payload, and its valid payload
// short by one byte, through a primary's handle and a fresh standby's.
func goldenHandlers(t *testing.T, b *strings.Builder) {
	f := newHandlerFixture(t)
	for op := 0; op <= len(opTable); op++ {
		op := uint8(op)
		payloads := [][]byte{nil}
		if v := f.frames[op]; len(v) > 0 {
			payloads = append(payloads, v[:len(v)-1])
		}
		for _, p := range payloads {
			cs := &connState{}
			resp, err := f.srv.handle(cs, op, p)
			f.srv.releaseBracket(cs)
			fmt.Fprintf(b, "primary %d %s %x < %x\n", op, rowOf(op).name, p, replyFrame(resp, err))
			resp, err = newTestStandby(t).handle(&connState{}, op, p)
			fmt.Fprintf(b, "standby %d %s %x < %x\n", op, rowOf(op).name, p, replyFrame(resp, err))
		}
	}
}
