package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"labflow/bench/wrap"
	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/pagefile"
	"labflow/internal/wire"
)

// Operation kinds of the population workloads' schedules.
const (
	kMostRecent uint8 = iota
	kLookup
	kState
	kPut1  // one-step PutSteps on an own key
	kPutN  // multi-step PutSteps on own keys
	kCount // scatter-gather CountInState / CountSteps
)

// popClient is the part of the store surface the population workloads
// drive; *wire.Client and *shard.Router differ only in LookupMaterial's
// error return, which the two adapters below paper over.
type popClient interface {
	MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error)
	State(oid storage.OID) (string, error)
	PutSteps(specs []labbase.StepSpec) ([]storage.OID, error)
	CountInState(state string) (uint64, error)
	CountSteps(class string) (uint64, error)
	lookup(name string) (storage.OID, bool, error)
}

// mixInstance is a preloaded population behind some server topology, with
// numWorkers closed-loop workers over it.
type mixInstance struct {
	pop     *population
	workers []*worker
	clients []popClient
	batch   int // steps per kPutN batch

	// expect[k] is the value a most-recent read of key k must return when
	// the reading worker owns k. nAcked counts acknowledged steps per
	// worker; acked also keeps their OIDs when the workload re-reads them.
	expect    []int64
	nAcked    []int64
	keepAcked bool
	acked     [][]storage.OID

	// warmOps is the fixed length of the unmeasured warm-up; the space and
	// heap gauges are read right after it, at a data volume that does not
	// depend on how fast the host happened to be.
	warmOps          int64
	bytesPerUserByte float64
	liveHeapMB       float64

	stats    func() storage.Stats    // summed over the backing managers
	space    func() (uint64, uint64) // bytes held by the store, live user bytes
	servers  []*served
	router   *shard.Router
	desc     map[string]any
	verifier func(m *mixInstance, c *checks)
	closers  closers
}

func (m *mixInstance) exec(w *worker, e schedEntry) (cls, ops int, arg uint32, err error) {
	c := m.clients[w.id]
	n := len(m.pop.oids)
	k := int(e.key)
	switch e.kind {
	case kMostRecent:
		v, _, found, err := c.MostRecent(m.pop.oids[k], attrName)
		if err != nil {
			return clsRead, 1, 0, err
		}
		if !found {
			return clsRead, 1, 0, errWrong("most-recent miss on preloaded material %d", k)
		}
		if k%numWorkers == w.id && (v.Kind != labbase.KindInt || v.Int != m.expect[k]) {
			return clsRead, 1, 0, errWrong("material %d reads %v, last acknowledged write was %d", k, v, m.expect[k])
		}
		return clsRead, 1, 0, nil
	case kLookup:
		oid, found, err := c.lookup(m.pop.names[k])
		if err != nil {
			return clsRead, 1, 0, err
		}
		if !found || oid != m.pop.oids[k] {
			return clsRead, 1, 0, errWrong("lookup of %s gave %v (found=%v), want %v", m.pop.names[k], oid, found, m.pop.oids[k])
		}
		return clsRead, 1, 0, nil
	case kState:
		st, err := c.State(m.pop.oids[k])
		if err != nil {
			return clsRead, 1, 0, err
		}
		if st != initState {
			return clsRead, 1, 0, errWrong("material %d in state %q, want %q", k, st, initState)
		}
		return clsRead, 1, 0, nil
	case kPut1, kPutN:
		steps := 1
		if e.kind == kPutN {
			steps = m.batch
		}
		specs := make([]labbase.StepSpec, steps)
		keys := make([]int, steps)
		vt := writeTimeBase + int64(w.seq)*int64(m.batch)
		for i := range specs {
			// Successive own keys from the drawn one: a batch touches
			// distinct materials, which on two shards lands on both.
			keys[i] = ownKey((k+i*numWorkers)%n, w.id, numWorkers, n)
			specs[i] = oneStep(m.pop.oids[keys[i]], vt+int64(i), vt+int64(i))
		}
		oids, err := c.PutSteps(specs)
		if err != nil {
			return clsWrite, steps, uint32(steps), err
		}
		if len(oids) != steps {
			return clsWrite, steps, uint32(steps), errWrong("PutSteps of %d steps acknowledged %d", steps, len(oids))
		}
		for i, key := range keys {
			m.expect[key] = vt + int64(i)
		}
		m.nAcked[w.id] += int64(steps)
		if m.keepAcked {
			m.acked[w.id] = append(m.acked[w.id], oids...)
		}
		return clsWrite, steps, uint32(steps), nil
	case kCount:
		if e.aux&1 == 0 {
			got, err := c.CountInState(initState)
			if err != nil {
				return clsScan, 1, 0, err
			}
			if got != uint64(n) {
				return clsScan, 1, 0, errWrong("CountInState(%s) = %d, want %d", initState, got, n)
			}
			return clsScan, 1, 0, nil
		}
		got, err := c.CountSteps(stepClass)
		if err != nil {
			return clsScan, 1, 0, err
		}
		if got < uint64(n) {
			return clsScan, 1, 0, errWrong("CountSteps(%s) = %d, below the %d preloaded", stepClass, got, n)
		}
		return clsScan, 1, 0, nil
	}
	return clsRead, 1, 0, fmt.Errorf("unknown operation kind %d", e.kind)
}

func (m *mixInstance) measure(d time.Duration, rec *wrap.Recorder) (*measured, error) {
	out := summarize(runWindow(m.workers, d, 0, rec))
	out.bytesPerUserByte, out.liveHeapMB = m.bytesPerUserByte, m.liveHeapMB
	return out, nil
}

// ackedSteps is how many steps the store has acknowledged to the workers.
func (m *mixInstance) ackedSteps() uint64 {
	var n uint64
	for _, k := range m.nAcked {
		n += uint64(k)
	}
	return n
}

func (m *mixInstance) counters() layerCounters {
	lc := layerCounters{stats: m.stats(), conn: traffic(m.servers...)}
	if m.router != nil {
		rs := m.router.Metrics()
		for k := range rs.PerShard {
			lc.shardTrips = append(lc.shardTrips, rs.PerShard[k].Count())
		}
		for width, n := range rs.Fanouts {
			lc.fanoutOps += n
			lc.fanoutSum += uint64(width) * n
		}
	}
	return lc
}

func (m *mixInstance) verify(c *checks)         { m.verifier(m, c) }
func (m *mixInstance) describe() map[string]any { return m.desc }
func (m *mixInstance) close()                   { m.closers.close() }

// warmup runs a fixed number of the workers' operations unmeasured, so
// caches, connection buffers and the page pool are in their steady state
// when timing starts.
func warmup(workers []*worker, ops int64) (float64, error) {
	t0 := nowNs()
	ws := runWindow(workers, time.Minute, ops, nil)
	if ws.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d operations failed: %w", ws.failed, ws.attempted, ws.firstErr)
	}
	return float64(nowNs()-t0) / 1e9, nil
}

// gauges reads the space and heap gauges: bytes the store holds per live
// user byte, and live heap in MiB. A main-memory store (held == 0) holds
// what its heap holds. The sizes behind the ratio go into desc.
func gauges(held, live uint64, desc map[string]any) (bytesPerUserByte, heapMB float64) {
	heapMB = liveHeapMB()
	if held == 0 {
		held = uint64(heapMB * (1 << 20))
	}
	desc["store_bytes"], desc["live_user_bytes"] = held, live
	return float64(held) / float64(live), heapMB
}

// finishSetup warms the instance up and reads its gauges; a failed warm-up
// releases it.
func (m *mixInstance) finishSetup(st setupTimes) (instance, setupTimes, error) {
	var err error
	if st.warmup, err = warmup(m.workers, m.warmOps); err != nil {
		m.close()
		return nil, st, err
	}
	held, live := m.space()
	m.bytesPerUserByte, m.liveHeapMB = gauges(held, live, m.desc)
	return m, st, nil
}

// newMix wires workers over clients with one schedule each.
func newMix(cfg *config, pop *population, clients []popClient, mix []mixShare, batch, opsPerSec int) *mixInstance {
	m := &mixInstance{
		pop: pop, clients: clients, batch: batch,
		expect: make([]int64, len(pop.oids)),
		nAcked: make([]int64, len(clients)),
		acked:  make([][]storage.OID, len(clients)),
	}
	for i := range m.expect {
		m.expect[i] = int64(i)
	}
	for id := range clients {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(id)))
		w := newWorker(id, genSchedule(rng, len(pop.oids), mix), cfg.seconds, opsPerSec, clsRead, clsWrite, clsScan)
		w.exec = m.exec
		m.workers = append(m.workers, w)
	}
	return m
}

// wireClient adapts *wire.Client to popClient.
type wireClient struct{ *wire.Client }

func (c wireClient) lookup(name string) (storage.OID, bool, error) { return c.LookupMaterial(name) }

// routerClient adapts *shard.Router to popClient.
type routerClient struct{ *shard.Router }

func (c routerClient) lookup(name string) (storage.OID, bool, error) {
	oid, found := c.LookupMaterial(name)
	return oid, found, nil
}

// dialPop opens one wire connection per worker.
func dialPop(addr string, n int) ([]popClient, error) {
	conns, err := dialClients(addr, n)
	if err != nil {
		return nil, err
	}
	clients := make([]popClient, n)
	for i, c := range conns {
		clients[i] = wireClient{c}
	}
	return clients, nil
}

func closePop(clients []popClient) {
	for _, c := range clients {
		if wc, ok := c.(wireClient); ok {
			wc.Close()
		}
	}
}

// ---- wire-read -----------------------------------------------------------

// servePopulation preloads n materials into db, serves store on loopback and
// dials one client per worker, pushing each release onto cl.
func servePopulation(db, store labbase.Store, n int, traced bool, st *setupTimes, cl *closers) (*population, *served, []popClient, error) {
	t0 := nowNs()
	pop, err := preloadPopulation(db, n)
	if err != nil {
		return nil, nil, nil, err
	}
	st.preload = float64(nowNs()-t0) / 1e9
	srv, err := serve(store, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	cl.add(srv.stop)
	clients, err := dialPop(srv.addr, numWorkers)
	if err != nil {
		return nil, nil, nil, err
	}
	cl.add(func() { closePop(clients) })
	return pop, srv, clients, nil
}

func setupWireRead(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error) {
	var (
		st setupTimes
		cl closers
	)
	n := cfg.scaled(20000, 200)
	sm := memstore.Open("OStore-mm")
	db, store, err := openLabbase(sm, rec)
	if err != nil {
		return nil, st, err
	}
	cl.add(func() { db.Close() })
	pop, srv, clients, err := servePopulation(db, store, n, rec != nil, &st, &cl)
	if err != nil {
		cl.close()
		return nil, st, err
	}
	m := newMix(cfg, pop, clients, []mixShare{
		{kMostRecent, 0.80}, {kLookup, 0.075}, {kState, 0.075}, {kPut1, 0.05},
	}, 1, 120000)
	m.warmOps = int64(cfg.scaled(50000, 500))
	m.servers, m.closers = []*served{srv}, cl
	m.stats = sm.Stats
	m.space = func() (uint64, uint64) { s := sm.Stats(); return s.SizeBytes, s.LiveBytes }
	m.desc = map[string]any{
		"store": "memstore (all data in memory)", "materials": n, "keys": "Zipf(1.1)",
		"decode_cache_entries": labbase.DefaultCacheEntries, "clients": numWorkers, "transport": "loopback TCP, depth 1",
		"mix": "80% MostRecent, 7.5% LookupMaterial, 7.5% State, 5% one-step PutSteps",
	}
	m.verifier = func(m *mixInstance, c *checks) {
		got, err := db.CountSteps(stepClass)
		if err != nil || got != uint64(n)+m.ackedSteps() {
			c.failf("CountSteps = %d (%v), want %d preloaded + %d acknowledged", got, err, n, m.ackedSteps())
		}
		m.verifyOwnKeys(c, db)
	}
	return m.finishSetup(st)
}

// verifyOwnKeys checks every key's final most-recent value against the last
// write its owner had acknowledged.
func (m *mixInstance) verifyOwnKeys(c *checks, r labbase.Reader) {
	for k, oid := range m.pop.oids {
		v, _, found, err := r.MostRecent(oid, attrName)
		if err != nil || !found || v.Kind != labbase.KindInt || v.Int != m.expect[k] {
			c.failf("material %d ends at %v (found=%v, err=%v), want %d", k, v, found, err, m.expect[k])
		}
	}
}

// openLabbase opens a LabBase database over sm, decorating both seams when
// the run is traced. It returns the database and the store the server
// should be given.
func openLabbase(sm storage.Manager, rec *wrap.Recorder) (*labbase.DB, labbase.Store, error) {
	if rec != nil {
		sm = wrap.Manager(sm, rec)
	}
	db, err := labbase.Open(sm, labbase.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		return db, wrap.Store(db, rec), nil
	}
	return db, db, nil
}

// ---- wire-write-durable --------------------------------------------------

const (
	durablePoolPages  = 512
	durableCheckpoint = 8
)

// openDurable opens the fsyncing ostore the durable workload runs on. A
// traced run opens the two files itself so it can decorate them.
func openDurable(path string, rec *wrap.Recorder) (storage.Manager, error) {
	opts := ostore.Options{Path: path, PoolPages: durablePoolPages, SyncLog: true, CheckpointEvery: durableCheckpoint}
	if rec != nil {
		fb, err := pagefile.OpenFile(path)
		if err != nil {
			return nil, err
		}
		lf, err := wrap.OpenLog(path + ".log")
		if err != nil {
			fb.Close()
			return nil, err
		}
		opts.Backing = wrap.Backing(fb, rec)
		opts.Log = wrap.LogFile(lf, rec)
	}
	return ostore.Open(opts)
}

func setupWireWriteDurable(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error) {
	var (
		st setupTimes
		cl closers
	)
	fail := func(err error) (instance, setupTimes, error) {
		cl.close()
		return nil, st, err
	}
	n := cfg.scaled(20000, 200)
	dir, err := os.MkdirTemp(cfg.dir, "durable-")
	if err != nil {
		return fail(err)
	}
	cl.add(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "ostore.db")
	sm, err := openDurable(path, rec)
	if err != nil {
		return fail(err)
	}
	db, store, err := openLabbase(sm, rec)
	if err != nil {
		sm.Close()
		return fail(err)
	}
	cl.add(func() { db.Close() })
	pop, srv, clients, err := servePopulation(db, store, n, rec != nil, &st, &cl)
	if err != nil {
		return fail(err)
	}
	const batch = 16
	m := newMix(cfg, pop, clients, []mixShare{
		{kPut1, 0.85}, {kPutN, 0.05}, {kMostRecent, 0.10},
	}, batch, 6000)
	m.warmOps = int64(cfg.scaled(1500, 100))
	m.servers, m.closers = []*served{srv}, cl
	m.stats = sm.Stats
	m.space = func() (uint64, uint64) { s := sm.Stats(); return s.SizeBytes, s.LiveBytes }
	m.keepAcked = true
	m.desc = map[string]any{
		"store": "ostore on disk", "materials": n, "keys": "Zipf(1.1)",
		"pool_pages": durablePoolPages, "pool_bytes": durablePoolPages * pagefile.PageSize,
		"flush_policy":         fmt.Sprintf("SyncLog=true (fsync the redo log at every commit), checkpoint every %d commit groups", durableCheckpoint),
		"decode_cache_entries": labbase.DefaultCacheEntries, "clients": numWorkers, "transport": "loopback TCP, depth 1",
		"mix": "85% one-step PutSteps, 5% 16-step PutSteps, 10% MostRecent",
	}
	m.verifier = func(m *mixInstance, c *checks) {
		// Crash: drop the server and the store without Close, so nothing is
		// flushed that a commit had not already forced, then recover from
		// the files alone.
		closePop(clients)
		srv.stop()
		m.closers = m.closers[:1] // only the directory is left to release
		sm2, err := ostore.Open(ostore.Options{Path: path, PoolPages: durablePoolPages, SyncLog: true, CheckpointEvery: durableCheckpoint})
		if err != nil {
			c.failf("reopen after abandon: %v", err)
			return
		}
		db2, err := labbase.Open(sm2, labbase.DefaultOptions())
		if err != nil {
			sm2.Close()
			c.failf("reopen labbase after abandon: %v", err)
			return
		}
		defer db2.Close()
		for _, oids := range m.acked {
			for _, oid := range oids {
				if _, err := db2.GetStep(oid); err != nil {
					c.failf("acknowledged step %v unreadable after reopen: %v", oid, err)
				}
			}
		}
		got, err := db2.CountSteps(stepClass)
		if err != nil || got != uint64(n)+m.ackedSteps() {
			c.failf("after reopen CountSteps = %d (%v), want %d preloaded + %d acknowledged", got, err, n, m.ackedSteps())
		}
		m.verifyOwnKeys(c, db2)
	}
	return m.finishSetup(st)
}

// ---- shard-mix -----------------------------------------------------------

func setupShardMix(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error) {
	var st setupTimes
	const shards = 2
	n := cfg.scaled(20000, 200)
	var (
		managers []storage.Manager
		servers  []*served
		cl       closers
		addrs    []string
	)
	fail := func(err error) (instance, setupTimes, error) {
		cl.close()
		return nil, st, err
	}
	for k := 0; k < shards; k++ {
		raw := memstore.Open("OStore-mm")
		managers = append(managers, raw)
		sm := raw
		if rec != nil {
			sm = wrap.Manager(raw, rec)
		}
		mem, err := shard.OpenMember(sm, k, shards, labbase.DefaultOptions())
		if err != nil {
			return fail(err)
		}
		cl.add(func() { mem.Close() })
		var store labbase.Store = mem
		if rec != nil {
			store = wrap.Store(mem, rec)
		}
		srv, err := serve(store, rec != nil)
		if err != nil {
			return fail(err)
		}
		cl.add(srv.stop)
		servers, addrs = append(servers, srv), append(addrs, srv.addr)
	}
	router, err := shard.OpenRouter(shard.Topology{Shards: addrs}, shard.RouterOptions{HealthInterval: -1})
	if err != nil {
		return fail(err)
	}
	cl.add(func() { router.Close() })

	t0 := nowNs()
	pop, err := preloadPopulation(router, n)
	if err != nil {
		return fail(err)
	}
	st.preload = float64(nowNs()-t0) / 1e9

	clients := make([]popClient, numWorkers)
	for i := range clients {
		clients[i] = routerClient{router}
	}
	const batch = 8
	m := newMix(cfg, pop, clients, []mixShare{
		{kMostRecent, 0.60}, {kLookup, 0.10}, {kPutN, 0.20}, {kCount, 0.10},
	}, batch, 60000)
	m.warmOps = int64(cfg.scaled(40000, 500))
	m.servers, m.closers = servers, cl
	m.router = router
	m.stats = func() storage.Stats {
		var sum storage.Stats
		for _, sm := range managers {
			s := sm.Stats()
			sum.Reads += s.Reads
			sum.Writes += s.Writes
			sum.Allocs += s.Allocs
			sum.LiveObjects += s.LiveObjects
			sum.LiveBytes += s.LiveBytes
		}
		return sum
	}
	m.space = func() (uint64, uint64) { return 0, m.stats().LiveBytes }
	m.desc = map[string]any{
		"store": "2 x memstore members behind shard.Router (health monitor off)", "materials": n, "keys": "Zipf(1.1)",
		"decode_cache_entries": labbase.DefaultCacheEntries, "clients": numWorkers,
		"transport": "router called directly; router to members over loopback TCP",
		"mix":       "60% MostRecent, 10% LookupMaterial, 20% 8-step PutSteps across both shards, 10% CountInState/CountSteps",
	}
	m.verifier = func(m *mixInstance, c *checks) {
		got, err := router.CountSteps(stepClass)
		if err != nil || got != uint64(n)+m.ackedSteps() {
			c.failf("CountSteps = %d (%v), want %d preloaded + %d acknowledged", got, err, n, m.ackedSteps())
		}
		m.verifyOwnKeys(c, router)
	}
	return m.finishSetup(st)
}
