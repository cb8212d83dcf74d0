package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/wire"
)

// Router is the core over N shard servers, one per shard, reached through
// the wire protocol: labbase-server processes named by a Topology
// (OpenRouter), or member servers inside this process (Open). Routing,
// merging and error wrapping are the core's, so a workload run through a
// Router over one server returns byte-identical results — data and error
// strings both — to the same workload on that server's store. See core for
// the concurrency and atomicity contracts.
//
// Reads may run from any number of goroutines (each checks out its own
// pooled connection). A cross-shard read asks every server at once and
// each answers from a snapshot of its own taken when the request arrives;
// nothing fixes the per-shard states together, but no single shard is ever
// seen torn mid-transaction (DESIGN §12).
//
// Failure model: a shard server the router cannot reach marks its pool
// down; operations touching that shard fail fast with ErrShardDown naming
// it, and the health monitor keeps probing the address, re-admitting the
// shard when it answers the OpShardInfo handshake with the right identity.
// When the topology names a warm standby for the shard, a down shard whose
// revival probe fails is failed over instead: the monitor promotes the
// standby (OpPromote) and retargets the shard's pool at it, and the old
// primary's address is never probed again — if the old process comes back
// it is simply unreachable from this router, which is the split-brain
// guard (see DESIGN §8).
type Router struct {
	*core
	pools []*pool
	store string // shard 0's storage-backend name (the map fingerprint)
	opts  RouterOptions
	// standbys holds each shard's warm-standby address ("" = none),
	// consumed on failover. Written by OpenRouter and then touched only by
	// the health goroutine, so it needs no locking.
	standbys []string

	// cluster is the in-process cluster a router built by Open owns; nil
	// for OpenRouter's.
	cluster *cluster

	stopHealth chan struct{}
	healthWG   sync.WaitGroup
	closeOnce  sync.Once
}

var _ labbase.Store = (*Router)(nil)

// RouterOptions tunes the router's wire behavior.
type RouterOptions struct {
	// DialTimeout bounds connection establishment per shard and becomes
	// each connection's per-operation I/O deadline (default 5s), so a dead
	// peer turns into a deadline error instead of a hang mid-scatter.
	DialTimeout time.Duration
	// HealthInterval is the health monitor's probe period (default 1s;
	// negative disables the monitor entirely).
	HealthInterval time.Duration
}

// OpenRouter dials and verifies every shard in the topology, refusing to
// start over a mismatched map: each server must advertise exactly the
// shard index the topology assigns it, the topology's shard count, and
// the same storage backend as shard 0. A router over one server whose
// store is a plain labbase.DB behaves byte-identically to that DB.
func OpenRouter(t Topology, opts RouterOptions) (*Router, error) {
	return openRouter(t, opts, wire.DialTimeout)
}

// openRouter is OpenRouter with every connection — pooled, handshake and
// failover probe alike — made by dial.
func openRouter(t Topology, opts RouterOptions, dial dialFunc) (*Router, error) {
	n := len(t.Shards)
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: topology names %d shards, outside [1, %d]", n, MaxShards)
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Second
	}
	if len(t.Standbys) != 0 && len(t.Standbys) != n {
		return nil, fmt.Errorf("shard: topology names %d standbys for %d shards", len(t.Standbys), n)
	}
	r := &Router{
		pools:      make([]*pool, n),
		opts:       opts,
		standbys:   make([]string, n),
		stopHealth: make(chan struct{}),
	}
	copy(r.standbys, t.Standbys)
	metrics := newRouterMetrics(n)
	members := make([]member, n)
	for k, addr := range t.Shards {
		r.pools[k] = newPool(k, addr, opts.DialTimeout, dial)
		members[k] = &remote{k: k, pool: r.pools[k], metrics: metrics}
	}
	r.core = newCore(members, metrics)
	for k := range r.pools {
		c, err := r.verifyShard(k)
		if err != nil {
			for _, p := range r.pools {
				p.closeAll()
			}
			return nil, err
		}
		r.pools[k].seed(c)
	}
	if opts.HealthInterval > 0 {
		r.healthWG.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// verifyShard dials shard k and checks the identity it advertises against
// the topology. Used by the opening handshake and by the health monitor's
// revival probes, so a server restarted with the wrong -shard flag is
// refused at both points.
func (r *Router) verifyShard(k int) (*conn, error) {
	p := r.pools[k]
	addr := p.address()
	c, err := p.dial(addr, p.timeout)
	if err != nil {
		return nil, fmt.Errorf("shard %d (%s): %w", k, addr, err)
	}
	idx, cnt, store, err := c.ShardInfo()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): handshake: %w", k, addr, err)
	}
	if idx != k || cnt != len(r.pools) {
		c.Close()
		return nil, fmt.Errorf("shard: topology mismatch: server %s advertises shard %d of %d, this topology needs shard %d of %d",
			addr, idx, cnt, k, len(r.pools))
	}
	if k == 0 && r.store == "" {
		r.store = store
	} else if store != r.store {
		c.Close()
		return nil, fmt.Errorf("shard: store mismatch: shard 0 runs %q, shard %d (%s) runs %q",
			r.store, k, p.addr, store)
	}
	return &conn{Client: c}, nil
}

// healthLoop periodically pings every shard: live shards get a ShardInfo
// round-trip on a pooled connection (a failure marks them down), down
// shards get a fresh dial-and-handshake probe and rejoin on success.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopHealth:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	for k, p := range r.pools {
		if p.isDown() {
			if c, err := r.verifyShard(k); err == nil {
				p.seed(c)
				continue
			}
			r.tryFailover(k)
			continue
		}
		err := read(r.members[k], func(rd labbase.Reader) error {
			_, _, _, err := rd.(*conn).ShardInfo()
			return err
		})
		if err != nil && !errors.Is(err, wire.ErrRemote) && !errors.Is(err, ErrShardDown) {
			p.markDown(err)
		}
	}
}

// tryFailover promotes shard k's warm standby after a failed revival
// probe. The promoted process reopens its media behind a full server on
// the same address, so the pool is retargeted there and the next probe
// tick re-admits the shard through the normal handshake. Single shot: the
// standby is consumed whether or not the new primary ever answers — a
// second failover needs a new topology. The old primary's address is
// abandoned, never probed again (the split-brain guard).
func (r *Router) tryFailover(k int) {
	addr := r.standbys[k]
	if addr == "" {
		return
	}
	p := r.pools[k]
	c, err := p.dial(addr, p.timeout)
	if err != nil {
		return // standby unreachable too; retry next tick
	}
	perr := c.Promote()
	c.Close()
	if perr != nil && !errors.Is(perr, wire.ErrRemote) {
		return // transport failure mid-promote; retry next tick
	}
	// A remote refusal means the peer already serves as a primary (an
	// earlier promote's ack was lost, or an operator promoted by hand);
	// the retarget below points the shard at it either way.
	old := p.address()
	r.standbys[k] = ""
	p.retarget(addr, fmt.Errorf("failed over from %s", old))
	r.metrics.failover(k)
}

// Metrics snapshots the router's per-shard latency histograms and fan-out
// width counters.
func (r *Router) Metrics() RouterStats { return r.metrics.snapshot() }

// Close stops the health monitor and drops every connection. An open
// broadcast bracket is committed first (matching what the servers
// themselves do when a bracket connection disconnects), so no server is
// left holding its writer lock. A router from OpenRouter leaves the cluster
// running for the next router: the shard servers own their stores. One
// from Open owns its cluster, so Close also shuts its servers down and
// closes its members, returning their errors. Only the first call does
// anything; a concurrent one waits for it.
func (r *Router) Close() error {
	var errs []error
	r.closeOnce.Do(func() {
		close(r.stopHealth)
		r.healthWG.Wait()
		if r.InTxn() {
			r.Commit()
		}
		for _, p := range r.pools {
			p.closeAll()
		}
		for k, err := range r.cluster.close() {
			if err != nil {
				errs = append(errs, r.wrap(k, err))
			}
		}
	})
	return errors.Join(errs...)
}

// routerSnap adapts the live router to the Snapshot surface. It pins
// nothing: each read captures fresh per-server snapshots at call time (the
// servers' own read paths do that), so two reads through the same handle
// may observe different cluster states. Cross-shard reads still never see
// a torn mid-transaction state on any single shard.
type routerSnap struct{ *Router }

func (s routerSnap) Close() error { return nil }

// Snapshot returns a read handle over the live router (see routerSnap: it
// reads live state).
func (r *Router) Snapshot() (labbase.Snapshot, error) { return routerSnap{r}, nil }

// --- the wire transport -----------------------------------------------------

// conn adapts a wire.Client to labbase.Reader. The client's methods are the
// Reader's except four whose Reader form has no error result; the error the
// wire reported for those is kept in dropped, so the pool can still tell a
// broken connection from a healthy one. began is when the operation it is
// checked out for started.
type conn struct {
	*wire.Client
	dropped error
	began   time.Time
}

func (c *conn) names(names []string, err error) []string {
	if c.dropped = err; err != nil {
		return nil
	}
	return names
}

func (c *conn) MaterialClasses() []string { return c.names(c.Client.MaterialClasses()) }
func (c *conn) StepClasses() []string     { return c.names(c.Client.StepClasses()) }
func (c *conn) States() []string          { return c.names(c.Client.States()) }

func (c *conn) LookupMaterial(name string) (storage.OID, bool) {
	oid, found, err := c.Client.LookupMaterial(name)
	if c.dropped = err; err != nil {
		return storage.NilOID, false
	}
	return oid, found
}

// bare strips the "wire: remote error: " prefix off a server-reported
// error so the bytes the router relays match what an in-process caller
// would have seen; sentinel identity survives (the bare error unwraps to
// the coded sentinel), and a server-side labbase.BatchError comes back as
// one. Transport-level errors pass through unchanged.
func bare(err error) error {
	if rbe, ok := err.(*wire.RemoteBatchError); ok {
		return &rbe.BatchError
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return re.Bare()
	}
	return err
}

// remote is shard k as a member: a labbase-server behind a connection
// pool. Connections are checked out for one operation at a time, except
// the one a broadcast bracket pins.
type remote struct {
	k       int
	pool    *pool
	metrics *routerMetrics
	// tx is the connection pinned while the broadcast bracket is open: the
	// server ties a transaction to the connection that sent OpBegin, so
	// every mutation inside the bracket must travel on it. Stored by
	// begin/commit (under core.stmu), loaded by the mutations.
	tx atomic.Pointer[conn]
}

// checkout takes a pooled connection for one operation and starts its
// clock; finish stops the clock, hands the connection back classified by
// the error the operation ended in, and returns that error bare.
func (m *remote) checkout() (*conn, error) {
	c, err := m.pool.get()
	if err != nil {
		return nil, err
	}
	c.began, c.dropped = m.metrics.clock(), nil
	return c, nil
}

func (m *remote) finish(c *conn, err error) error {
	m.metrics.record(m.k, c.began)
	m.pool.finish(c, err)
	return bare(err)
}

func (m *remote) open() (labbase.Reader, error) {
	c, err := m.checkout()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (m *remote) done(rd labbase.Reader, err error) error {
	c := rd.(*conn)
	if err == nil {
		err = c.dropped
	}
	return m.finish(c, err)
}

func (m *remote) stats() (string, storage.Stats, error) {
	c, err := m.checkout()
	if err != nil {
		return "", storage.Stats{}, err
	}
	name, st, err := c.Stats()
	return name, st, m.finish(c, err)
}

// begin pins a connection and opens the server's bracket on it. With one
// already pinned the Begin is forwarded there, so a nested Begin draws the
// store's own diagnostic.
func (m *remote) begin() error {
	if c := m.tx.Load(); c != nil {
		return bare(c.Begin())
	}
	c, err := m.pool.get()
	if err != nil {
		return err
	}
	if err := c.Begin(); err != nil {
		m.pool.finish(c, err)
		return bare(err)
	}
	m.tx.Store(c)
	return nil
}

func (m *remote) commit() error {
	c := m.tx.Swap(nil)
	if c == nil {
		var err error
		if c, err = m.pool.get(); err != nil {
			return err
		}
	}
	err := c.Commit()
	m.pool.finish(c, err)
	return bare(err)
}

// mutate refuses locally when no bracket is pinned: the server would
// happily wrap an out-of-bracket mutation in a transaction of its own,
// which is exactly the divergence from Store semantics the router must not
// allow.
func (m *remote) mutate(fn func(writer) error) error {
	c := m.tx.Load()
	if c == nil {
		return labbase.ErrNoTransaction
	}
	defer m.metrics.record(m.k, m.metrics.clock())
	return bare(fn(c))
}

func (m *remote) alone(fn func(writer) error) (err, commitErr error) {
	c, err := m.checkout()
	if err != nil {
		return err, nil
	}
	if err := c.Begin(); err != nil {
		return m.finish(c, err), nil
	}
	err = fn(c)
	commitErr = c.Commit()
	m.finish(c, errors.Join(err, commitErr))
	return bare(err), bare(commitErr)
}

func (m *remote) putSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	if c := m.tx.Load(); c != nil {
		defer m.metrics.record(m.k, m.metrics.clock())
		oids, err := c.PutSteps(specs)
		return oids, bare(err)
	}
	f, err := m.batch()
	if err != nil {
		return nil, err
	}
	f.start(specs)
	return f.wait()
}

// remoteFlight is a sub-batch on a pooled connection: start sends the
// frame without reading the reply, so every touched server is inside its
// transaction before the router waits for the first.
type remoteFlight struct {
	m    *remote
	c    *conn
	recv func() ([]storage.OID, error)
}

func (m *remote) batch() (flight, error) {
	c, err := m.checkout()
	if err != nil {
		return nil, err
	}
	return &remoteFlight{m: m, c: c}, nil
}

func (f *remoteFlight) start(specs []labbase.StepSpec) {
	f.c.began = f.m.metrics.clock()
	f.recv = f.c.StartPutSteps(specs) // a send error comes back from recv
}

func (f *remoteFlight) wait() ([]storage.OID, error) {
	oids, err := f.recv()
	return oids, f.m.finish(f.c, err)
}

func (f *remoteFlight) release() { f.m.pool.put(f.c) }
