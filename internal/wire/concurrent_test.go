package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// populateReadFixture loads a deterministic dataset through the client:
// materials with steps, a set, and a couple of states.
func populateReadFixture(t *testing.T, c *Client) (mats []storage.OID, set storage.OID, steps []storage.OID) {
	t.Helper()
	if _, err := c.DefineMaterialClass("clone", ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"waiting", "done"} {
		if _, err := c.DefineState(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.DefineStepClass("measure", []labbase.AttrDef{
		{Name: "reading", Kind: labbase.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		m, err := c.CreateMaterial("clone", fmt.Sprintf("m%d", i), "waiting", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, m)
		for j := 0; j < 4; j++ {
			s, err := c.RecordStep(labbase.StepSpec{
				Class: "measure", ValidTime: int64(10*i + j),
				Materials: []storage.OID{m},
				Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(100*i + j))}},
			})
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, s)
		}
	}
	var err error
	set, err = c.CreateMaterialSet(mats[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(mats[0], "done"); err != nil {
		t.Fatal(err)
	}
	return mats, set, steps
}

// readRequests builds the raw read-op frames the stress test replays.
func readRequests(mats []storage.OID, set storage.OID, steps []storage.OID) []rawFrame {
	var reqs []rawFrame
	encOID := func(op uint8, oid storage.OID) rawFrame {
		return rawFrame{op: op, payload: encodeUint(uint64(oid))}
	}
	for _, m := range mats {
		reqs = append(reqs,
			rawFrame{op: OpMostRecent, payload: append(encodeUint(uint64(m)), encodeString("reading")...)},
			encOID(OpHistory, m),
			encOID(OpGetMaterial, m),
			encOID(OpState, m),
		)
	}
	for _, s := range steps[:8] {
		reqs = append(reqs, encOID(OpGetStep, s))
	}
	reqs = append(reqs,
		rawFrame{op: OpCountMaterials, payload: encodeString("clone")},
		rawFrame{op: OpCountSteps, payload: encodeString("measure")},
		rawFrame{op: OpCountInState, payload: encodeString("waiting")},
		rawFrame{op: OpMaterialsInState, payload: encodeString("waiting")},
		encOID(OpSetMembers, set),
		rawFrame{op: OpLookupMaterial, payload: encodeString("m3")},
		rawFrame{op: OpDump, payload: nil},
	)
	return reqs
}

type rawFrame struct {
	op      uint8
	payload []byte
}

// rawResponses replays the request list on one connection, returning each
// response frame verbatim (status byte + body).
func rawResponses(t *testing.T, addr string, reqs []rawFrame) [][]byte {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([][]byte, 0, len(reqs))
	for _, rq := range reqs {
		if err := writeFrame(c.w, rq.op, rq.payload); err != nil {
			t.Fatal(err)
		}
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		status, body, err := readFrame(c.r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte{status}, body...))
	}
	return out
}

// TestConcurrentReadsByteIdentical proves the parallel read path changes
// nothing observable: two identically populated servers — a reference
// driven over one connection, which the server executes strictly in order,
// and one hammered from many connections at once — must produce
// byte-identical response frames for the same request sequence.
func TestConcurrentReadsByteIdentical(t *testing.T) {
	start := func() (string, *Client) {
		db, err := labbase.Open(memstore.Open("stress-mm"), labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(db)
		srv.SetLogf(nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			ln.Close()
			srv.Shutdown()
			db.Close()
		})
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return ln.Addr().String(), c
	}

	refAddr, refClient := start()
	concAddr, concClient := start()
	mats, set, steps := populateReadFixture(t, refClient)
	mats2, set2, steps2 := populateReadFixture(t, concClient)
	if !oidsEqual(mats, mats2) || set != set2 || !oidsEqual(steps, steps2) {
		t.Fatal("fixture population diverged between servers")
	}
	reqs := readRequests(mats, set, steps)
	want := rawResponses(t, refAddr, reqs)

	const conns = 8
	got := make([][][]byte, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = rawResponses(t, concAddr, reqs)
		}(i)
	}
	wg.Wait()

	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("conn %d: %d responses, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[i][j], want[j]) {
				t.Errorf("conn %d, request %d (op %d): concurrent response differs from the reference:\n got %x\nwant %x",
					i, j, reqs[j].op, got[i][j], want[j])
			}
		}
	}
}

func oidsEqual(a, b []storage.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentReadersWithWriter mixes a writer into the read stress: the
// readers must never see an error or a torn value while steps land.
func TestConcurrentReadersWithWriter(t *testing.T) {
	c0, _ := startServer(t)
	mats, _, _ := populateReadFixture(t, c0)
	addr := c0.conn.RemoteAddr().String()

	const readers = 6
	const perReader = 150
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perReader; i++ {
				m := mats[(r+i)%len(mats)]
				v, _, found, err := cl.MostRecent(m, "reading")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if !found || v.Kind != labbase.KindInt {
					errs <- fmt.Errorf("reader %d: bad most-recent %v found=%v", r, v, found)
					return
				}
				if _, err := cl.History(m); err != nil {
					errs <- fmt.Errorf("reader %d history: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := c0.RecordStep(labbase.StepSpec{
				Class: "measure", ValidTime: int64(1000 + i),
				Materials: []storage.OID{mats[i%len(mats)]},
				Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i))}},
			}); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPutSteps(t *testing.T) {
	c, _ := startServer(t)
	mats, _, _ := populateReadFixture(t, c)

	before, err := c.CountSteps("measure")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]labbase.StepSpec, 5)
	for i := range specs {
		specs[i] = labbase.StepSpec{
			Class: "measure", ValidTime: int64(500 + i),
			Materials: []storage.OID{mats[i]},
			Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i))}},
		}
	}
	oids, err := c.PutSteps(specs)
	if err != nil {
		t.Fatalf("PutSteps: %v", err)
	}
	if len(oids) != len(specs) {
		t.Fatalf("PutSteps returned %d oids", len(oids))
	}
	for i, oid := range oids {
		st, err := c.GetStep(oid)
		if err != nil || st.ValidTime != int64(500+i) {
			t.Fatalf("batched step %d = %+v, %v", i, st, err)
		}
	}
	if n, err := c.CountSteps("measure"); err != nil || n != before+uint64(len(specs)) {
		t.Fatalf("CountSteps = %d, %v; want %d", n, err, before+uint64(len(specs)))
	}

	// A failing entry reports its index; earlier entries stay recorded
	// (the batch is documented as non-atomic).
	bad := []labbase.StepSpec{
		{Class: "measure", ValidTime: 600, Materials: []storage.OID{mats[0]},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(1)}}},
		{Class: "measure", ValidTime: 601, Materials: []storage.OID{mats[1]},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.String("not an int")}}},
	}
	if _, err := c.PutSteps(bad); !errors.Is(err, ErrRemote) {
		t.Fatalf("bad batch error = %v", err)
	} else if want := "entry 1"; !containsStr(err.Error(), want) {
		t.Errorf("error %q does not name the failing index", err)
	}
	if n, err := c.CountSteps("measure"); err != nil || n != before+uint64(len(specs))+1 {
		t.Fatalf("after failed batch: CountSteps = %d, %v", n, err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestShutdownDrainsPipelinedBurst sends a pipelined burst, waits for the
// first response (so the server has buffered the burst), shuts down
// mid-stream, and checks the drain: Shutdown returns promptly, every
// response delivered is well-formed, and no server goroutine leaks.
func TestShutdownDrainsPipelinedBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	db, err := labbase.Open(memstore.Open("drain-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mats, _, _ := populateReadFixture(t, c)

	const burst = 32
	for i := 0; i < burst; i++ {
		payload := append(encodeUint(uint64(mats[i%len(mats)])), encodeString("reading")...)
		if err := writeFrame(c.w, OpMostRecent, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	// First response in hand means the server has started consuming the
	// burst; everything it has buffered must still be answered.
	if status, _, err := readFrame(c.r); err != nil || status != statusOK {
		t.Fatalf("first burst response: status %d, %v", status, err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		ln.Close()
		srv.Shutdown()
		close(shutdownDone)
	}()

	served := 1
	for {
		status, _, err := readFrame(c.r)
		if err != nil {
			break // connection closed by the drain
		}
		if status != statusOK {
			t.Fatalf("response %d: status %d", served, status)
		}
		served++
	}
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c.Close()
	db.Close()
	t.Logf("drain served %d/%d burst responses", served, burst)

	// All connection goroutines must be gone (retry: exits are async).
	deadline := time.Now().Add(5 * time.Second) //lint:allow wallclock test deadline, never persisted
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) { //lint:allow wallclock test deadline, never persisted
			t.Fatalf("goroutine leak: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// encodeUint / encodeString build raw payload fragments for frame-level tests.
func encodeUint(v uint64) []byte {
	e := rec.NewEncoder(16)
	e.Uint(v)
	return e.Bytes()
}

func encodeString(s string) []byte {
	e := rec.NewEncoder(16)
	e.String(s)
	return e.Bytes()
}
