// Package lockfix exercises lockorder against the mirrored rank table:
// Server.mu(10) < Server.connMu(20) < Core.stmu(30) < Pool.mu(34) <
// Local.wmu(40) < Shipper.mu(55) < Standby.mu(58), with
// Cache.mu, Metrics.mu, and Shipper.mu leaves and the storage types
// unranked (cycle-checked only).
// Because the analysis is module-wide, the ok functions below still feed
// the acquisition graph — the ranked-cycle finding reported inside
// okDescend is the graph-level consequence of badInvert reversing an edge
// okDescend establishes.
package lockfix

import "sync"

type Server struct {
	mu     sync.Mutex
	connMu sync.Mutex
	db     *Core
}

// Core/Local/Pool/Metrics mirror the shard core's lock shapes: the
// catalog-and-bracket lock above what either transport takes per shard (a
// connection pool's lock, a local shard's own-transaction lock), with the
// metrics histogram lock a leaf.
type Core struct {
	stmu  sync.Mutex
	local []*Local
	pools []*Pool
	met   *Metrics
	c     *Cache
}

type Local struct{ wmu sync.Mutex }

type Cache struct {
	mu sync.Mutex
	m  map[uint64]string
}

type ostore struct{ mu sync.Mutex }

type pagefile struct{ mu sync.Mutex }

// ok: descending the documented hierarchy.
func (s *Server) okDescend(k int) {
	s.mu.Lock()
	s.connMu.Lock()
	s.db.stmu.Lock()
	s.db.local[k].wmu.Lock()
	s.db.local[k].wmu.Unlock()
	s.db.stmu.Unlock()
	s.connMu.Unlock()
	s.mu.Unlock()
}

// ok: deferred unlocks keep the lock held for the rest of the function,
// which is exactly what the hierarchy is checked against.
func (s *Server) okDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.connMu.Lock()
	defer s.connMu.Unlock()
}

// ok: a spawned goroutine inherits none of the spawner's locks, so this
// records no mu -> connMu edge from inside the literal.
func (s *Server) okGo() {
	s.mu.Lock()
	go func() {
		s.connMu.Lock()
		s.connMu.Unlock()
	}()
	s.mu.Unlock()
}

// Violation shape 1: wmu -> stmu inverts the hierarchy.
func (d *Core) badInvert(k int) {
	d.local[k].wmu.Lock()
	d.stmu.Lock()
	d.stmu.Unlock()
	d.local[k].wmu.Unlock()
}

// Violation shape 2: a leaf lock may acquire nothing while held.
func (d *Core) badLeaf(k int) {
	d.c.mu.Lock()
	d.local[k].wmu.Lock()
	d.local[k].wmu.Unlock()
	d.c.mu.Unlock()
}

// Violation shape 3: the inversion hides behind a call — the callee's
// transitive acquisition summary carries it to this call site.
func (d *Core) lockCatalog() {
	d.stmu.Lock()
	d.stmu.Unlock()
}

func (d *Core) badViaCall(k int) {
	d.local[k].wmu.Lock()
	d.lockCatalog()
	d.local[k].wmu.Unlock()
}

// Violation shape 4: a function-literal argument is attributed to the call
// that receives it.
func withCatalog(d *Core, fn func()) {
	fn()
}

func (d *Core) badLitArg(k int) {
	d.local[k].wmu.Lock()
	withCatalog(d, func() {
		d.stmu.Lock()
		d.stmu.Unlock()
	})
	d.local[k].wmu.Unlock()
}

// Violation shape 5: re-acquiring a held mutex self-deadlocks.
func (d *Core) badRelock() {
	d.stmu.Lock()
	d.stmu.Lock()
	d.stmu.Unlock()
	d.stmu.Unlock()
}

// Violation shape 6: the unranked storage locks are cycle-checked — these
// two functions acquire them in both orders.
func storeThenPage(o *ostore, p *pagefile) {
	o.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	o.mu.Unlock()
}

func pageThenStore(o *ostore, p *pagefile) {
	p.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	p.mu.Unlock()
}

type Pool struct {
	mu   sync.Mutex
	idle []int
}

type Metrics struct {
	mu sync.Mutex
	n  []uint64
}

// ok: the wire bracket descends stmu -> pool.mu, and the fan-out
// literals run on their own goroutines, so they inherit nothing — pool
// and metrics acquisitions inside them start from an empty held set.
func (r *Core) okFanOut() {
	r.stmu.Lock()
	r.pools[0].mu.Lock()
	r.pools[0].mu.Unlock()
	r.stmu.Unlock()
	var wg sync.WaitGroup
	for _, p := range r.pools {
		wg.Add(1)
		p := p
		go func() {
			defer wg.Done()
			p.mu.Lock()
			p.mu.Unlock()
			r.met.mu.Lock()
			r.met.mu.Unlock()
		}()
	}
	wg.Wait()
}

// Violation shape 7: a fan-out helper that runs its closure synchronously
// attributes the closure's acquisitions to the call site — holding a pool
// lock while the closure re-enters the bracket inverts the
// Core.stmu(30) < Pool.mu(34) order.
func eachShard(r *Core, fn func(k int)) {
	for k := range r.pools {
		fn(k)
	}
}

func (r *Core) badFanOutClosure() {
	r.pools[0].mu.Lock()
	eachShard(r, func(k int) {
		r.stmu.Lock()
		r.stmu.Unlock()
	})
	r.pools[0].mu.Unlock()
}

// Violation shape 8: the metrics histogram lock is a leaf — record, don't
// call out.
func (r *Core) badMetricsLeaf() {
	r.met.mu.Lock()
	r.pools[0].mu.Lock()
	r.pools[0].mu.Unlock()
	r.met.mu.Unlock()
}

// Shipper/Standby mirror the replication locks: the shipper's send lock
// is acquired at commit time with the writer lock held (a leaf — it
// brackets network I/O, never another lock), and the standby's apply
// lock sits just under the leaves because Apply descends into the
// journal backing's unranked pagefile mutex.
type Shipper struct {
	mu sync.Mutex
}

type Standby struct {
	mu sync.Mutex
	pf *pagefile
}

// ok: a commit holds the writer lock, ships the record, and the standby
// applies under its own lock while touching the journal backing —
// wmu(40) < Shipper.mu(55) < Standby.mu(58) > (unranked pagefile).
func (d *Core) okShipCommit(k int, sh *Shipper, st *Standby) {
	d.local[k].wmu.Lock()
	sh.mu.Lock()
	sh.mu.Unlock()
	d.local[k].wmu.Unlock()
	st.mu.Lock()
	st.pf.mu.Lock()
	st.pf.mu.Unlock()
	st.mu.Unlock()
}

// Violation shape 9: the shipper lock is a leaf — it may bracket I/O but
// never acquire another lock, even a higher-ranked one.
func badShipperLeaf(sh *Shipper, st *Standby) {
	sh.mu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	sh.mu.Unlock()
}

// Violation shape 10: a promoted standby must not re-enter the writer
// path under its apply lock — Standby.mu(58) -> Local.wmu(40) inverts.
func (d *Core) badPromoteReenter(k int, st *Standby) {
	st.mu.Lock()
	d.local[k].wmu.Lock()
	d.local[k].wmu.Unlock()
	st.mu.Unlock()
}

// Suppressed: the directive names the analyzer and gives a reason.
func (d *Core) allowedInvert(k int) {
	d.local[k].wmu.Lock()
	//lint:allow lockorder shutdown path, serialized behind the run-state gate
	d.stmu.Lock()
	d.stmu.Unlock()
	d.local[k].wmu.Unlock()
}

// Violation shape 11: an op table. A generic descriptor is built by a
// def-style constructor, each row's arm is a method value, and the arm runs
// its handler inside a closure handed to an exec-style helper. The
// dispatcher holds Server.mu across the arm and one handler takes it again:
// resolved through the row, the descriptor and the constructor's
// parameter, the call is a self-deadlock.
type opHandler[Q any] func(s *Server, q Q) error

type opDesc[Q any] struct {
	name    string
	handler opHandler[Q]
}

func defOp[Q any](name string, h opHandler[Q]) *opDesc[Q] {
	return &opDesc[Q]{name: name, handler: h}
}

type opRow struct {
	handle func(s *Server, payload []byte) error
}

func (o *opDesc[Q]) serve(s *Server, payload []byte) error {
	var q Q
	return s.exec(func() error { return o.handler(s, q) })
}

func (o *opDesc[Q]) row() opRow { return opRow{handle: o.serve} }

func (s *Server) exec(fn func() error) error { return fn() }

var opRows = []opRow{
	defOp("count", func(s *Server, _ int) error { return nil }).row(),
	defOp("reset", func(s *Server, _ string) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil
	}).row(),
}

func (s *Server) badDispatch(code int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return opRows[code].handle(s, payload)
}

// ok: a hook field that is also filled from an interface method's result
// stays opaque. Its visible value takes Core.stmu, which under Local.wmu
// would invert the hierarchy, but the other value cannot be seen, so the
// call through the field adds no edge.
type hookSource interface{ Hook() func(*Core) }

type hooks struct{ onFlush func(*Core) }

func newHooks(src hookSource) *hooks {
	h := &hooks{onFlush: func(d *Core) {
		d.stmu.Lock()
		d.stmu.Unlock()
	}}
	if src != nil {
		h.onFlush = src.Hook()
	}
	return h
}

func (d *Core) okOpaqueHook(h *hooks, k int) {
	d.local[k].wmu.Lock()
	defer d.local[k].wmu.Unlock()
	h.onFlush(d)
}

// Violation shape 12: a hook field whose every value is visible resolves to
// the function literal stored in it. The report names that literal by its
// position: no literal is passed at the call.
type flushHooks struct{ onFlush func(*Core) }

func newFlushHooks() *flushHooks {
	return &flushHooks{onFlush: func(d *Core) {
		d.stmu.Lock()
		d.stmu.Unlock()
	}}
}

func (d *Core) badResolvedHook(h *flushHooks, k int) {
	d.local[k].wmu.Lock()
	defer d.local[k].wmu.Unlock()
	h.onFlush(d)
}
