package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/texas"
)

// fakePeer speaks just enough of the protocol to exercise client failure
// paths deterministically: it answers the hello exchange, then hands the
// connection to a scripted behavior. net.Pipe is synchronous, so every
// client write is observed by the script before the client proceeds.
func fakePeer(t *testing.T, script func(r *bufio.Reader, w *bufio.Writer, conn net.Conn)) *Client {
	t.Helper()
	cconn, pconn := net.Pipe()
	go func() {
		r := bufio.NewReader(pconn)
		w := bufio.NewWriter(pconn)
		if _, _, err := readFrame(r); err != nil {
			pconn.Close()
			return
		}
		e := rec.NewEncoder(16)
		e.Uint(protocolVersion)
		e.String("fake peer")
		if err := writeFrame(w, statusOK, e.Bytes()); err != nil || w.Flush() != nil {
			pconn.Close()
			return
		}
		script(r, w, pconn)
	}()
	c, err := NewClient(cconn)
	if err != nil {
		t.Fatalf("hello against fake peer: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStartPutStepsFailsOnPeerClose is the peer-death regression test: a
// peer that reads a split PutSteps and closes the connection without
// answering must turn the wait into a transport error within a deadline —
// never a hang, never a remote error — and the client must refuse every
// later call.
func TestStartPutStepsFailsOnPeerClose(t *testing.T) {
	c := fakePeer(t, func(r *bufio.Reader, w *bufio.Writer, conn net.Conn) {
		readFrame(r) // the PutSteps frame, left unanswered
		conn.Close()
	})
	wait := c.StartPutSteps([]labbase.StepSpec{{Class: "measure", ValidTime: 1}})
	done := make(chan error, 1)
	go func() {
		_, err := wait()
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait hung after the peer closed")
	}
	if err == nil || errors.Is(err, ErrRemote) {
		t.Fatalf("wait after peer close = %v, want a transport error", err)
	}
	if _, later := c.State(storage.OID(1)); later == nil || errors.Is(later, ErrRemote) ||
		!strings.Contains(later.Error(), "connection unusable") {
		t.Fatalf("call after peer close = %v, want the client refused", later)
	}
}

// TestClientIOTimeout: with an I/O deadline armed, a peer that accepts a
// request and never answers turns into os.ErrDeadlineExceeded instead of a
// hang — the fail-fast bound the shard router's fan-out relies on.
func TestClientIOTimeout(t *testing.T) {
	block := make(chan struct{})
	c := fakePeer(t, func(r *bufio.Reader, w *bufio.Writer, conn net.Conn) {
		readFrame(r) // swallow the request
		<-block      // never answer
	})
	defer close(block)
	c.SetIOTimeout(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := c.CountMaterials("sample")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("silent peer = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request against silent peer hung despite I/O deadline")
	}
}

// TestSentinelRoundTrip pins the structured error frames: every well-known
// sentinel must survive encode/decode with errors.Is intact and the
// server-side message bytes preserved verbatim — including the sentinels a
// live test cannot easily provoke (ErrTornStore).
func TestSentinelRoundTrip(t *testing.T) {
	sentinels := []error{
		storage.ErrNoSuchObject,
		labbase.ErrCrossShard,
		texas.ErrTornStore,
		labbase.ErrNoTransaction,
		labbase.ErrUnknownClass,
		labbase.ErrUnknownAttr,
		labbase.ErrUnknownState,
		labbase.ErrKindMismatch,
		labbase.ErrNotMaterial,
		labbase.ErrDuplicateName,
		storage.ErrSegmentFull,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("some context: %w", sentinel)
		e := rec.NewEncoder(64)
		encodeRemoteErr(e, wrapped)
		got := decodeRemoteErr(rec.NewDecoder(e.Bytes()))
		if !errors.Is(got, ErrRemote) {
			t.Errorf("%v: decoded error does not match ErrRemote", sentinel)
		}
		if !errors.Is(got, sentinel) {
			t.Errorf("%v: sentinel identity lost across the wire: %v", sentinel, got)
		}
		var re *RemoteError
		if !errors.As(got, &re) {
			t.Fatalf("%v: decoded %T, want *RemoteError", sentinel, got)
		}
		if re.Msg != wrapped.Error() {
			t.Errorf("%v: message bytes changed: %q != %q", sentinel, re.Msg, wrapped.Error())
		}
		if bare := re.Bare(); bare.Error() != wrapped.Error() || !errors.Is(bare, sentinel) {
			t.Errorf("%v: Bare() lost bytes or identity: %v", sentinel, bare)
		}
	}

	// Batch errors travel structurally: index and inner sentinel intact.
	be := &labbase.BatchError{Index: 7, Err: fmt.Errorf("entry: %w", labbase.ErrNotMaterial)}
	e := rec.NewEncoder(64)
	encodeRemoteErr(e, be)
	got := decodeRemoteErr(rec.NewDecoder(e.Bytes()))
	var rbe *RemoteBatchError
	if !errors.As(got, &rbe) {
		t.Fatalf("batch error decoded as %T", got)
	}
	if rbe.Index != 7 {
		t.Errorf("batch index = %d, want 7", rbe.Index)
	}
	if !errors.Is(got, labbase.ErrNotMaterial) || !errors.Is(got, ErrRemote) {
		t.Errorf("batch error chain broken: %v", got)
	}
	if got.Error() != "wire: remote error: "+be.Error() {
		t.Errorf("batch error bytes: %q", got.Error())
	}
}

// TestSentinelsAcrossLiveServer drives a handful of sentinel-producing
// operations through a real server and asserts errors.Is classification on
// the client side (the router builds its routing decisions on these).
func TestSentinelsAcrossLiveServer(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	oid, err := c.CreateMaterial("sample", "m-0", "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetMaterial(oid + 9999); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Errorf("bogus OID = %v, want ErrNoSuchObject", err)
	}
	if _, err := c.CreateMaterial("sample", "m-0", "received", 2); !errors.Is(err, labbase.ErrDuplicateName) {
		t.Errorf("dup name = %v, want ErrDuplicateName", err)
	}
	if err := c.SetState(oid, "nowhere"); !errors.Is(err, labbase.ErrUnknownState) {
		t.Errorf("unknown state = %v, want ErrUnknownState", err)
	}
	if _, err := c.CreateMaterial("mystery", "m-1", "received", 3); !errors.Is(err, labbase.ErrUnknownClass) {
		t.Errorf("unknown class = %v, want ErrUnknownClass", err)
	}
	if err := c.Commit(); !errors.Is(err, labbase.ErrNoTransaction) {
		t.Errorf("commit without begin = %v, want ErrNoTransaction", err)
	}
}

// TestClientPoisonedByTransportError: a request that timed out may still be
// answered late, so the connection's stream position is unknown. The next
// call on the same Client must fail fast wrapping the first error — it must
// not read the late reply to the first request as its own.
func TestClientPoisonedByTransportError(t *testing.T) {
	timedOut := make(chan struct{})
	c := fakePeer(t, func(r *bufio.Reader, w *bufio.Writer, conn net.Conn) {
		readFrame(r) // request 1, left unanswered until the client gives up
		<-timedOut
		// A client that carries on sends request 2; answer it with the late
		// reply to request 1, which is what a slow server would do.
		if _, _, err := readFrame(r); err != nil {
			return
		}
		writeFrame(w, statusOK, encodeUint(111))
		w.Flush()
	})
	c.SetIOTimeout(50 * time.Millisecond)
	if _, err := c.CountMaterials("first"); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent peer = %v, want os.ErrDeadlineExceeded", err)
	}
	close(timedOut)
	n, err := c.CountMaterials("second")
	if err == nil {
		t.Fatalf("call after a transport error returned %d, the first request's late reply", n)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, ErrRemote) {
		t.Fatalf("call after a transport error = %v, want it to wrap the first transport error", err)
	}
	// Every opcode fails the same way, without touching the socket.
	if _, err := c.State(storage.OID(1)); !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, ErrRemote) {
		t.Fatalf("State on a poisoned client = %v, want it to wrap the first transport error", err)
	}
}

// TestOversizeRequestBreaksConnection: a request too large to frame is
// refused locally, and like any other failed send it leaves the connection
// refused: later calls fail fast instead of reaching the server.
func TestOversizeRequestBreaksConnection(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.ShipRecord(make([]byte, MaxFrame)); err == nil || errors.Is(err, ErrRemote) {
		t.Fatalf("oversize request = %v, want a local error", err)
	}
	if _, err := c.CountMaterials("nothing"); err == nil || errors.Is(err, ErrRemote) {
		t.Fatalf("call after an oversize request = %v, want the connection refused", err)
	}
}

// TestOversizeReplyIsAnErrorFrame: a reply too large to frame is refused
// before a byte of it is written, so the stream is still in sync — the
// client must get a typed error naming the opcode and the size, and keep
// its connection, on a primary and on a standby alike. The loop's reply
// limit is lowered instead of building a 16 MiB reply.
func TestOversizeReplyIsAnErrorFrame(t *testing.T) {
	db, err := labbase.Open(memstore.Open("oversize-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db)
	srv.SetLogf(nil)
	srv.replyLimit = 64
	st, err := repl.OpenFileStandby(filepath.Join(t.TempDir(), "follower.db"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := NewStandbyServer(st)
	ss.SetLogf(nil)
	ss.replyLimit = 2 // a ReplState reply is two bytes plus the status
	addrs := make([]string, 2)
	for i, serve := range []func(net.Listener) error{srv.Serve, ss.Serve} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go serve(ln)
		addrs[i] = ln.Addr().String()
	}
	defer srv.Shutdown()
	defer ss.Shutdown()

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	populateReadFixture(t, c)
	err = c.ScanAllMaterials(func(*labbase.Material) error { return nil })
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "ScanAllMaterials reply of ") ||
		!strings.Contains(err.Error(), "exceeds the 64-byte frame limit") {
		t.Fatalf("oversize scan = %v, want a remote error naming the opcode and the limit", err)
	}
	if n, err := c.CountMaterials("clone"); err != nil || n != 16 {
		t.Fatalf("connection after an oversize reply: CountMaterials = %d, %v", n, err)
	}

	// The standby's hello reply would not fit either, so speak raw frames.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ { // twice: the connection survives the refusal
		if err := writeFrame(conn, OpReplState, nil); err != nil {
			t.Fatal(err)
		}
		status, body, err := readFrame(conn)
		if err != nil || status != statusErr {
			t.Fatalf("standby oversize reply %d: status %d, %v", i, status, err)
		}
		if err := decodeRemoteErr(rec.NewDecoder(body)); !strings.Contains(err.Error(), "ReplState reply of 3 bytes exceeds the 2-byte frame limit") {
			t.Fatalf("standby oversize reply %d = %v", i, err)
		}
	}
}
