package wire

import (
	"bufio"
	"encoding/binary"
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

// NewClient wraps an established connection (for tests, net.Pipe works).
func NewClient(conn net.Conn) (*Client, error) { return newClient(conn, 0) }

// newClient performs the hello exchange over conn.
func newClient(conn net.Conn, ioTimeout time.Duration) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), ioTimeout: ioTimeout}
	e := rec.NewEncoder(4)
	e.Uint(protocolVersion)
	d, err := c.roundTrip(OpHello, e.Bytes())
	if err != nil {
		c.conn.Close()
		return nil, err
	}
	if v := d.Uint(); v != protocolVersion {
		c.conn.Close()
		return nil, fmt.Errorf("wire: server speaks version %d", v)
	}
	_ = d.String() // server banner
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

// call is a round trip whose reply decode reads.
func call[T any](c *Client, op uint8, payload []byte, decode func(*rec.Decoder) (T, error)) (T, error) {
	d, err := c.roundTrip(op, payload)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(d)
}

// callUint is a round trip whose reply is one unsigned integer.
func (c *Client) callUint(op uint8, payload []byte) (uint64, error) {
	return call(c, op, payload, decodeUint)
}

// callOIDs is a round trip whose reply is an OID list.
func (c *Client) callOIDs(op uint8, payload []byte, bad string) ([]storage.OID, error) {
	return call(c, op, payload, func(d *rec.Decoder) ([]storage.OID, error) { return decodeOIDs(d, 1<<24, bad) })
}

// Begin opens an explicit transaction bracket on the server: until Commit,
// this connection holds the server's writer lock and every mutation it
// sends joins the one open transaction (mirroring labbase.DB.Begin).
func (c *Client) Begin() error {
	_, err := c.roundTrip(OpBegin, nil)
	return err
}

// Commit closes the explicit transaction bracket (see Begin).
func (c *Client) Commit() error {
	_, err := c.roundTrip(OpCommit, nil)
	return err
}

// ShardInfo performs the topology handshake: the server's shard index and
// count, and its storage-backend name (the router's shard-map fingerprint).
// It doubles as the health-check ping — it is read-only and lock-free on
// the server.
func (c *Client) ShardInfo() (index, count int, store string, err error) {
	d, err := c.roundTrip(OpShardInfo, nil)
	if err != nil {
		return 0, 0, "", err
	}
	index = int(d.Uint())
	count = int(d.Uint())
	store = d.String()
	return index, count, store, d.Err()
}

// DefineMaterialClass mirrors labbase.DB.DefineMaterialClass.
func (c *Client) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	e := rec.NewEncoder(32)
	e.String(name)
	e.String(parent)
	id, err := c.callUint(OpDefineMaterialClass, e.Bytes())
	return labbase.ClassID(id), err
}

// DefineAttr mirrors labbase.DB.DefineAttr.
func (c *Client) DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error) {
	e := rec.NewEncoder(32)
	e.String(name)
	e.Byte(byte(kind))
	id, err := c.callUint(OpDefineAttr, e.Bytes())
	return labbase.AttrID(id), err
}

// DefineState mirrors labbase.DB.DefineState.
func (c *Client) DefineState(name string) (labbase.StateID, error) {
	id, err := c.callUint(OpDefineState, nameReq(name))
	return labbase.StateID(id), err
}

// DefineStepClass mirrors labbase.DB.DefineStepClass.
func (c *Client) DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error) {
	e := rec.NewEncoder(64)
	e.String(name)
	e.Uint(uint64(len(attrs)))
	for _, a := range attrs {
		e.String(a.Name)
		e.Byte(byte(a.Kind))
	}
	d, err := c.roundTrip(OpDefineStepClass, e.Bytes())
	if err != nil {
		return 0, 0, err
	}
	return labbase.StepClassID(d.Uint()), labbase.Version(d.Uint()), d.Err()
}

// CreateMaterial mirrors labbase.DB.CreateMaterial (one server transaction).
func (c *Client) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	e := rec.NewEncoder(64)
	e.String(class)
	e.String(name)
	e.String(state)
	e.Int(validTime)
	oid, err := c.callUint(OpCreateMaterial, e.Bytes())
	return storage.OID(oid), err
}

// CreateMaterialSet mirrors labbase.DB.CreateMaterialSet.
func (c *Client) CreateMaterialSet(members []storage.OID) (storage.OID, error) {
	e := rec.NewEncoder(16 + 9*len(members))
	encodeOIDs(e, members)
	oid, err := c.callUint(OpCreateSet, e.Bytes())
	return storage.OID(oid), err
}

// stepReq is OpRecordStep's request payload.
func stepReq(spec labbase.StepSpec) []byte {
	e := rec.NewEncoder(128)
	encodeStepSpec(e, spec)
	return e.Bytes()
}

// RecordStep mirrors labbase.DB.RecordStep (one server transaction).
func (c *Client) RecordStep(spec labbase.StepSpec) (storage.OID, error) {
	oid, err := c.callUint(OpRecordStep, stepReq(spec))
	return storage.OID(oid), err
}

// PutSteps records a batch of steps in one round trip and one server
// transaction, amortizing both the network turnaround and the commit across
// the batch. The batch is not atomic: on error, steps before the failing
// index remain recorded (the server's error message names the index).
func (c *Client) PutSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	return call(c, OpPutSteps, encodeStepBatch(specs), func(d *rec.Decoder) ([]storage.OID, error) {
		return decodeStepBatchReply(d, len(specs))
	})
}

// SetState mirrors labbase.DB.SetState.
func (c *Client) SetState(oid storage.OID, state string) error {
	_, err := c.roundTrip(OpSetState, attrReq(oid, state))
	return err
}

// State mirrors labbase.DB.State.
func (c *Client) State(oid storage.OID) (string, error) {
	return call(c, OpState, oidReq(oid), decodeString)
}

// mostRecent serves MostRecent and its Scan and AsOf variants; t travels
// only with OpMostRecentAsOf.
func (c *Client) mostRecent(op uint8, oid storage.OID, attr string, t int64) (labbase.Value, storage.OID, bool, error) {
	payload := attrReq(oid, attr)
	if op == OpMostRecentAsOf {
		payload = binary.AppendVarint(payload, t) // what rec.Encoder.Int appends
	}
	d, err := c.roundTrip(op, payload)
	if err != nil {
		return labbase.Nil(), storage.NilOID, false, err
	}
	return decodeValueReply(d)
}

// MostRecent mirrors labbase.DB.MostRecent.
func (c *Client) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	return c.mostRecent(OpMostRecent, oid, attr, 0)
}

// MostRecentScan mirrors labbase.DB.MostRecentScan.
func (c *Client) MostRecentScan(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	return c.mostRecent(OpMostRecentScan, oid, attr, 0)
}

// MostRecentAsOf mirrors labbase.DB.MostRecentAsOf.
func (c *Client) MostRecentAsOf(oid storage.OID, attr string, t int64) (labbase.Value, storage.OID, bool, error) {
	return c.mostRecent(OpMostRecentAsOf, oid, attr, t)
}

// History mirrors labbase.DB.History.
func (c *Client) History(oid storage.OID) ([]labbase.HistoryEntry, error) {
	return call(c, OpHistory, oidReq(oid), decodeHistory)
}

// GetMaterial mirrors labbase.DB.GetMaterial.
func (c *Client) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	return call(c, OpGetMaterial, oidReq(oid), decodeMaterial)
}

// GetStep mirrors labbase.DB.GetStep.
func (c *Client) GetStep(oid storage.OID) (*labbase.Step, error) {
	return call(c, OpGetStep, oidReq(oid), decodeStep)
}

// CountMaterials mirrors labbase.DB.CountMaterials.
func (c *Client) CountMaterials(class string) (uint64, error) {
	return c.callUint(OpCountMaterials, nameReq(class))
}

// CountSteps mirrors labbase.DB.CountSteps.
func (c *Client) CountSteps(class string) (uint64, error) {
	return c.callUint(OpCountSteps, nameReq(class))
}

// CountInState mirrors labbase.DB.CountInState.
func (c *Client) CountInState(state string) (uint64, error) {
	return c.callUint(OpCountInState, nameReq(state))
}

// MaterialsInState mirrors labbase.DB.MaterialsInState.
func (c *Client) MaterialsInState(state string) ([]storage.OID, error) {
	return c.callOIDs(OpMaterialsInState, nameReq(state), "wire: bad state reply")
}

// SetMembers mirrors labbase.DB.SetMembers.
func (c *Client) SetMembers(oid storage.OID) ([]storage.OID, error) {
	return c.callOIDs(OpSetMembers, oidReq(oid), "wire: bad set reply")
}

// StepsInvolving mirrors labbase.DB.StepsInvolving.
func (c *Client) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	return c.callOIDs(OpStepsInvolving, oidReq(oid), "wire: bad steps reply")
}

// LookupMaterial resolves a material by its unique name.
func (c *Client) LookupMaterial(name string) (storage.OID, bool, error) {
	d, err := c.roundTrip(OpLookupMaterial, nameReq(name))
	if err != nil {
		return storage.NilOID, false, err
	}
	found := d.Bool()
	oid := storage.OID(d.Uint())
	return oid, found, d.Err()
}

// Query runs a deductive query on the server, returning each solution as a
// variable-to-term-text map.
func (c *Client) Query(q string, max int) ([]map[string]string, error) {
	e := rec.NewEncoder(len(q) + 16)
	e.String(q)
	e.Uint(uint64(max))
	d, err := c.roundTrip(OpQuery, e.Bytes())
	if err != nil {
		return nil, err
	}
	n := d.Count(1 << 24)
	if d.Err() != nil {
		return nil, fmt.Errorf("wire: bad query reply")
	}
	out := make([]map[string]string, n)
	for i := range out {
		nv := d.Count(1 << 16)
		if d.Err() != nil {
			return nil, fmt.Errorf("wire: bad query reply")
		}
		sol := make(map[string]string, nv)
		for j := 0; j < nv; j++ {
			name := d.String()
			sol[name] = d.String()
		}
		out[i] = sol
	}
	return out, d.Err()
}

func (c *Client) nameList(op uint8) ([]string, error) {
	return call(c, op, nil, func(d *rec.Decoder) ([]string, error) {
		return decodeNames(d, 1<<20, "wire: bad name list reply")
	})
}

// MaterialClasses mirrors labbase.DB.MaterialClasses.
func (c *Client) MaterialClasses() ([]string, error) { return c.nameList(OpMaterialClasses) }

// StepClasses mirrors labbase.DB.StepClasses.
func (c *Client) StepClasses() ([]string, error) { return c.nameList(OpStepClasses) }

// States mirrors labbase.DB.States.
func (c *Client) States() ([]string, error) { return c.nameList(OpStates) }

// StepClassVersions mirrors labbase.DB.StepClassVersions.
func (c *Client) StepClassVersions(name string) ([][]string, error) {
	const bad = "wire: bad version list reply"
	d, err := c.roundTrip(OpStepClassVersions, nameReq(name))
	if err != nil {
		return nil, err
	}
	n := d.Count(1 << 20)
	if d.Err() != nil {
		return nil, errors.New(bad)
	}
	out := make([][]string, n)
	for i := range out {
		if out[i], err = decodeNames(d, 1<<16, bad); err != nil {
			return nil, err
		}
	}
	return out, d.Err()
}

// ScanMaterials fetches a class's materials in one frame and runs fn over
// them locally. An early-stopping fn cannot shorten the server-side scan
// (the full list has already shipped), but its error still aborts the
// local iteration with the same semantics as labbase.DB.ScanMaterials.
func (c *Client) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	return scan(c, OpScanMaterials, nameReq(class), "wire: bad material scan reply", decodeMaterial, fn)
}

// ScanAllMaterials is ScanMaterials over every class (see its caveats).
func (c *Client) ScanAllMaterials(fn func(*labbase.Material) error) error {
	return scan(c, OpScanAllMaterials, nil, "wire: bad material scan reply", decodeMaterial, fn)
}

// ScanSteps fetches a class's steps in one frame and runs fn over them
// locally (see ScanMaterials for the early-stop caveat).
func (c *Client) ScanSteps(class string, fn func(*labbase.Step) error) error {
	return scan(c, OpScanSteps, nameReq(class), "wire: bad step scan reply", decodeStep, fn)
}

// scan is a round trip whose reply is a counted list of decode's items,
// each handed to fn.
func scan[T any](c *Client, op uint8, payload []byte, bad string, decode func(*rec.Decoder) (T, error), fn func(T) error) error {
	d, err := c.roundTrip(op, payload)
	if err != nil {
		return err
	}
	n := d.Count(1 << 24)
	if d.Err() != nil {
		return errors.New(bad)
	}
	for i := 0; i < n; i++ {
		v, err := decode(d)
		if err != nil {
			return err
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return d.Err()
}

// AttrTimeline mirrors labbase.DB.AttrTimeline.
func (c *Client) AttrTimeline(oid storage.OID, attr string) ([]labbase.TimelineEntry, error) {
	d, err := c.roundTrip(OpAttrTimeline, attrReq(oid, attr))
	if err != nil {
		return nil, err
	}
	n := d.Count(1 << 24)
	if d.Err() != nil {
		return nil, fmt.Errorf("wire: bad timeline reply")
	}
	out := make([]labbase.TimelineEntry, n)
	for i := range out {
		out[i].ValidTime = d.Int()
		out[i].Step = storage.OID(d.Uint())
		out[i].Value = labbase.DecodeValue(d)
	}
	return out, d.Err()
}

// Dump mirrors labbase.DB.Dump.
func (c *Client) Dump() (labbase.DumpStats, error) {
	d, err := c.roundTrip(OpDump, nil)
	if err != nil {
		return labbase.DumpStats{}, err
	}
	st := labbase.DumpStats{
		Materials:   d.Uint(),
		Steps:       d.Uint(),
		AttrValues:  d.Uint(),
		HistoryRead: d.Uint(),
	}
	return st, d.Err()
}

// ShipRecord forwards one encoded redo record (see internal/storage/repl)
// to a standby server and returns the LSN the standby acknowledges. The
// payload is the raw record encoding, not a rec-framed body: the standby
// journals the exact bytes the primary logged. Records are bounded by
// MaxFrame, which caps one commit at roughly 2000 dirty pages — far above
// any group the storage engines produce.
func (c *Client) ShipRecord(record []byte) (uint64, error) {
	return c.callUint(OpShipRecord, record)
}

// Promote finalizes a standby server: the standby checkpoints its media,
// stops accepting records, and begins serving as a primary. Against a
// server that is already a primary it returns a remote error.
func (c *Client) Promote() error {
	_, err := c.roundTrip(OpPromote, nil)
	return err
}

// ReplState reports the peer's replication role (0 = primary, 1 = standby)
// and, for a standby, the last LSN it has applied.
func (c *Client) ReplState() (role int, lastLSN uint64, err error) {
	d, err := c.roundTrip(OpReplState, nil)
	if err != nil {
		return 0, 0, err
	}
	role = int(d.Uint())
	lastLSN = d.Uint()
	return role, lastLSN, d.Err()
}

// Stats returns the server's storage-manager name and counters.
func (c *Client) Stats() (string, storage.Stats, error) {
	d, err := c.roundTrip(OpStats, nil)
	if err != nil {
		return "", storage.Stats{}, err
	}
	name := d.String()
	var st storage.Stats
	for _, f := range statsFields(&st) {
		*f = d.Uint()
	}
	return name, st, d.Err()
}
