package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Client is a LabBase data-server connection. It is safe for use from one
// goroutine at a time (requests are synchronous).
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// ioTimeout bounds each blocking socket operation (0 = none). Armed
	// before every frame write and read, so a dead or wedged peer turns
	// into an os.ErrDeadlineExceeded instead of a hang.
	ioTimeout time.Duration
	// err is the first transport error the connection hit. After it the
	// stream position is unknown — a request may yet be answered, and the
	// next reply read would be taken for the wrong request — so every later
	// call fails fast wrapping it. Remote errors arrive in whole frames and
	// leave it nil.
	err error
	// enc encodes each request (see reuse).
	enc rec.Encoder
}

// Dial connects to a LabBase server and performs the hello exchange.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with a bound on connection establishment (zero means
// none); the same bound becomes the connection's per-operation I/O deadline
// (see SetIOTimeout).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	return newClient(conn, timeout)
}

// SetIOTimeout bounds every subsequent blocking socket operation (read or
// write of one frame); zero removes the bound. It exists so a fan-out
// across shard servers fails fast when one peer dies instead of hanging
// the whole scatter.
func (c *Client) SetIOTimeout(d time.Duration) { c.ioTimeout = d }

// arm sets the connection deadline ahead of a blocking socket operation.
func (c *Client) arm() {
	if c.ioTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.ioTimeout)) //lint:allow wallclock I/O deadline arming, never persisted or compared
	}
}

// NewClient wraps an established connection; net.Pipe works (shard.Open's
// in-memory network dials with it).
func NewClient(conn net.Conn) (*Client, error) { return newClient(conn, 0) }

// newClient performs the hello exchange over conn.
func newClient(conn net.Conn, ioTimeout time.Duration) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), ioTimeout: ioTimeout}
	h, err := opHello.call(c, protocolVersion)
	if err == nil && h.version != protocolVersion {
		err = fmt.Errorf("wire: server speaks version %d", h.version)
	}
	if err != nil {
		c.conn.Close()
		return nil, err
	}
	return c, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrRemote wraps errors reported by the server.
var ErrRemote = errors.New("wire: remote error")

// send, flush and recv are the one request path: a synchronous call is
// send-flush-recv (roundTrip), a Pipeline sends many, flushes once and recvs
// as many. Each refuses a connection an earlier failure has already broken,
// and records the first such failure.

// send buffers one request frame. Any failure breaks the connection, an
// oversize frame included: nothing of it was written, but a pipeline that
// fails on it abandons the frames buffered ahead of it, and their replies
// would be read as someone else's.
func (c *Client) send(op uint8, payload []byte) error {
	if c.err != nil {
		return c.broken()
	}
	c.arm()
	c.err = writeFrame(c.w, op, payload)
	return c.err
}

// flush puts every buffered frame on the socket.
func (c *Client) flush() error {
	if c.err != nil {
		return c.broken()
	}
	c.err = c.w.Flush()
	return c.err
}

// recv reads the next response: its payload, or the remote error it carries.
func (c *Client) recv() (*rec.Decoder, error) {
	if c.err != nil {
		return nil, c.broken()
	}
	c.arm()
	status, body, err := readFrame(c.r)
	if err != nil {
		c.err = err
		return nil, err
	}
	d := rec.NewDecoder(body)
	if status == statusErr {
		return nil, decodeRemoteErr(d)
	}
	return d, nil
}

func (c *Client) broken() error {
	return fmt.Errorf("wire: connection unusable after a transport error: %w", c.err)
}

func (c *Client) roundTrip(op uint8, payload []byte) (*rec.Decoder, error) {
	if err := c.send(op, payload); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	return c.recv()
}

// call is one round trip of o's carrying q.
func (o *op[Q, R]) call(c *Client, q Q) (R, error) {
	d, err := c.roundTrip(o.code, o.request(c, q))
	return o.reply(q, d, err)
}

// request encodes q in the client's encoder; the bytes stay valid until
// the client's next request.
func (o *op[Q, R]) request(c *Client, q Q) []byte {
	e := reuse(&c.enc)
	o.req.enc(e, q)
	return e.Bytes()
}

// reply decodes o's reply to q, or passes on the error that stands in for
// it.
func (o *op[Q, R]) reply(q Q, d *rec.Decoder, err error) (R, error) {
	var r R
	if err != nil {
		return r, err
	}
	if r, err = o.rep.dec(d); err == nil && o.check != nil {
		err = o.check(q, r)
	}
	return r, err
}

// drop keeps only a call's error, for the calls whose reply goes unused.
func drop[R any](_ R, err error) error { return err }

// Begin opens an explicit transaction bracket on the server: until Commit,
// this connection holds the server's writer lock and every mutation it
// sends joins the one open transaction (mirroring labbase.DB.Begin).
func (c *Client) Begin() error { return drop(opBegin.call(c, none{})) }

// Commit closes the explicit transaction bracket (see Begin).
func (c *Client) Commit() error { return drop(opCommit.call(c, none{})) }

// ShardInfo performs the topology handshake: the server's shard index and
// count, and its storage-backend name (the router's shard-map fingerprint).
// It doubles as the health-check ping — it is read-only and lock-free on
// the server.
func (c *Client) ShardInfo() (index, count int, store string, err error) {
	r, err := opShardInfo.call(c, none{})
	return r.index, r.count, r.store, err
}

// DefineMaterialClass mirrors labbase.DB.DefineMaterialClass.
func (c *Client) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	return opDefineMaterialClass.call(c, classQ{name, parent})
}

// DefineAttr mirrors labbase.DB.DefineAttr.
func (c *Client) DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error) {
	return opDefineAttr.call(c, labbase.AttrDef{Name: name, Kind: kind})
}

// DefineState mirrors labbase.DB.DefineState.
func (c *Client) DefineState(name string) (labbase.StateID, error) {
	return opDefineState.call(c, name)
}

// DefineStepClass mirrors labbase.DB.DefineStepClass.
func (c *Client) DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error) {
	r, err := opDefineStepClass.call(c, stepClassQ{name, attrs})
	return r.id, r.ver, err
}

// CreateMaterial mirrors labbase.DB.CreateMaterial (one server transaction).
func (c *Client) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	return opCreateMaterial.call(c, materialQ{class, name, state, validTime})
}

// CreateMaterialSet mirrors labbase.DB.CreateMaterialSet.
func (c *Client) CreateMaterialSet(members []storage.OID) (storage.OID, error) {
	return opCreateSet.call(c, members)
}

// RecordStep mirrors labbase.DB.RecordStep (one server transaction).
func (c *Client) RecordStep(spec labbase.StepSpec) (storage.OID, error) {
	return opRecordStep.call(c, spec)
}

// PutSteps records a batch of steps in one round trip and one server
// transaction, amortizing both the network turnaround and the commit across
// the batch. The batch is not atomic: on error, steps before the failing
// index remain recorded (the server's error message names the index).
func (c *Client) PutSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	return opPutSteps.call(c, specs)
}

// SetState mirrors labbase.DB.SetState.
func (c *Client) SetState(oid storage.OID, state string) error {
	return drop(opSetState.call(c, attrQ{oid, state}))
}

// State mirrors labbase.DB.State.
func (c *Client) State(oid storage.OID) (string, error) { return opState.call(c, oid) }

// unpackRecent spreads a value reply over MostRecent's results; a failed
// call reports the nil value.
func unpackRecent(r Recent, err error) (labbase.Value, storage.OID, bool, error) {
	if err != nil {
		return labbase.Nil(), storage.NilOID, false, err
	}
	return r.Value, r.Src, r.Found, nil
}

// MostRecent mirrors labbase.DB.MostRecent.
func (c *Client) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	return unpackRecent(opMostRecent.call(c, attrQ{oid, attr}))
}

// MostRecentScan mirrors labbase.DB.MostRecentScan.
func (c *Client) MostRecentScan(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	return unpackRecent(opMostRecentScan.call(c, attrQ{oid, attr}))
}

// MostRecentAsOf mirrors labbase.DB.MostRecentAsOf.
func (c *Client) MostRecentAsOf(oid storage.OID, attr string, t int64) (labbase.Value, storage.OID, bool, error) {
	return unpackRecent(opMostRecentAsOf.call(c, asOfQ{attrQ{oid, attr}, t}))
}

// History mirrors labbase.DB.History.
func (c *Client) History(oid storage.OID) ([]labbase.HistoryEntry, error) {
	return opHistory.call(c, oid)
}

// GetMaterial mirrors labbase.DB.GetMaterial.
func (c *Client) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	return opGetMaterial.call(c, oid)
}

// GetStep mirrors labbase.DB.GetStep.
func (c *Client) GetStep(oid storage.OID) (*labbase.Step, error) { return opGetStep.call(c, oid) }

// CountMaterials mirrors labbase.DB.CountMaterials.
func (c *Client) CountMaterials(class string) (uint64, error) {
	return opCountMaterials.call(c, class)
}

// CountSteps mirrors labbase.DB.CountSteps.
func (c *Client) CountSteps(class string) (uint64, error) { return opCountSteps.call(c, class) }

// CountInState mirrors labbase.DB.CountInState.
func (c *Client) CountInState(state string) (uint64, error) {
	return opCountInState.call(c, state)
}

// MaterialsInState mirrors labbase.DB.MaterialsInState.
func (c *Client) MaterialsInState(state string) ([]storage.OID, error) {
	return opMaterialsInState.call(c, state)
}

// SetMembers mirrors labbase.DB.SetMembers.
func (c *Client) SetMembers(oid storage.OID) ([]storage.OID, error) {
	return opSetMembers.call(c, oid)
}

// StepsInvolving mirrors labbase.DB.StepsInvolving.
func (c *Client) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	return opStepsInvolving.call(c, oid)
}

// LookupMaterial resolves a material by its unique name.
func (c *Client) LookupMaterial(name string) (storage.OID, bool, error) {
	r, err := opLookupMaterial.call(c, name)
	return r.oid, r.found, err
}

// Query runs a deductive query on the server, returning each solution as a
// variable-to-term-text map.
func (c *Client) Query(q string, max int) ([]map[string]string, error) {
	r, err := opQuery.call(c, queryQ{q, max})
	return r.text, err
}

// MaterialClasses mirrors labbase.DB.MaterialClasses.
func (c *Client) MaterialClasses() ([]string, error) { return opMaterialClasses.call(c, none{}) }

// StepClasses mirrors labbase.DB.StepClasses.
func (c *Client) StepClasses() ([]string, error) { return opStepClasses.call(c, none{}) }

// States mirrors labbase.DB.States.
func (c *Client) States() ([]string, error) { return opStates.call(c, none{}) }

// StepClassVersions mirrors labbase.DB.StepClassVersions.
func (c *Client) StepClassVersions(name string) ([][]string, error) {
	return opStepClassVersions.call(c, name)
}

// ScanMaterials fetches a class's materials in one frame and runs fn over
// them locally. An early-stopping fn cannot shorten the server-side scan
// (the full list has already shipped), but its error still aborts the
// local iteration with the same semantics as labbase.DB.ScanMaterials.
func (c *Client) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	materials, err := opScanMaterials.call(c, class)
	return each(materials, err, fn)
}

// ScanAllMaterials is ScanMaterials over every class (see its caveats).
func (c *Client) ScanAllMaterials(fn func(*labbase.Material) error) error {
	materials, err := opScanAllMaterials.call(c, none{})
	return each(materials, err, fn)
}

// ScanSteps fetches a class's steps in one frame and runs fn over them
// locally (see ScanMaterials for the early-stop caveat).
func (c *Client) ScanSteps(class string, fn func(*labbase.Step) error) error {
	steps, err := opScanSteps.call(c, class)
	return each(steps, err, fn)
}

// each runs fn over a fetched scan, stopping at fn's first error.
func each[T any](items []T, err error, fn func(T) error) error {
	for i := 0; err == nil && i < len(items); i++ {
		err = fn(items[i])
	}
	return err
}

// AttrTimeline mirrors labbase.DB.AttrTimeline.
func (c *Client) AttrTimeline(oid storage.OID, attr string) ([]labbase.TimelineEntry, error) {
	return opAttrTimeline.call(c, attrQ{oid, attr})
}

// Dump mirrors labbase.DB.Dump.
func (c *Client) Dump() (labbase.DumpStats, error) { return opDump.call(c, none{}) }

// ShipRecord forwards one encoded redo record (see internal/storage/repl)
// to a standby server and returns the LSN the standby acknowledges. The
// payload is the raw record encoding, not a rec-framed body: the standby
// journals the exact bytes the primary logged. Records are bounded by
// MaxFrame, which caps one commit at roughly 2000 dirty pages — far above
// any group the storage engines produce.
func (c *Client) ShipRecord(record []byte) (uint64, error) { return opShipRecord.call(c, record) }

// Promote finalizes a standby server: the standby checkpoints its media,
// stops accepting records, and begins serving as a primary. Against a
// server that is already a primary it returns a remote error.
func (c *Client) Promote() error { return drop(opPromote.call(c, none{})) }

// ReplState reports the peer's replication role (0 = primary, 1 = standby)
// and, for a standby, the last LSN it has applied.
func (c *Client) ReplState() (role int, lastLSN uint64, err error) {
	r, err := opReplState.call(c, none{})
	return r.role, r.lastLSN, err
}

// Stats returns the server's storage-manager name and counters.
func (c *Client) Stats() (string, storage.Stats, error) {
	r, err := opStats.call(c, none{})
	return r.name, r.st, err
}
