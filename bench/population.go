package main

import (
	"fmt"
	"math/rand"
	"net"

	"labflow/bench/wrap"
	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/wire"
)

// The preloaded population the mix workloads share: every material gets one
// "measure" step, so a most-recent lookup always finds a value, and the
// value preloaded for material i is i.
const (
	matClass  = "sample"
	stepClass = "measure"
	attrName  = "reading"
	initState = "received"
)

// writeTimeBase is past every preload valid time, so a window's writes
// always win most-recent.
const writeTimeBase = int64(1) << 32

// population is the preloaded key space.
type population struct {
	oids  []storage.OID
	names []string
}

// preloadPopulation defines the schema and creates n materials with one
// step each, through the store's public surface.
func preloadPopulation(db labbase.Store, n int) (*population, error) {
	if err := db.Begin(); err != nil {
		return nil, err
	}
	if _, err := db.DefineMaterialClass(matClass, ""); err != nil {
		return nil, err
	}
	if _, err := db.DefineState(initState); err != nil {
		return nil, err
	}
	if _, _, err := db.DefineStepClass(stepClass, []labbase.AttrDef{{Name: attrName, Kind: labbase.KindInt}}); err != nil {
		return nil, err
	}
	p := &population{oids: make([]storage.OID, n), names: make([]string, n)}
	for i := range p.oids {
		p.names[i] = fmt.Sprintf("m-%d", i)
		oid, err := db.CreateMaterial(matClass, p.names[i], initState, int64(i))
		if err != nil {
			return nil, err
		}
		p.oids[i] = oid
	}
	if err := db.Commit(); err != nil {
		return nil, err
	}
	const batch = 512
	specs := make([]labbase.StepSpec, 0, batch)
	for lo := 0; lo < n; lo += batch {
		specs = specs[:0]
		for i := lo; i < lo+batch && i < n; i++ {
			specs = append(specs, oneStep(p.oids[i], int64(i), int64(i)))
		}
		if _, err := db.PutSteps(specs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// oneStep is a single-material "measure" step.
func oneStep(oid storage.OID, validTime, value int64) labbase.StepSpec {
	return labbase.StepSpec{
		Class:     stepClass,
		ValidTime: validTime,
		Materials: []storage.OID{oid},
		Attrs:     []labbase.AttrValue{{Name: attrName, Value: labbase.Int64(value)}},
	}
}

// ownKey maps a drawn key to one the worker owns (key mod workers == id).
// A worker writes only its own keys, so every read of an own key must
// return exactly the worker's last acknowledged write.
func ownKey(key, id, workers, n int) int {
	k := key - key%workers + id
	if k >= n {
		k -= workers
	}
	return k
}

// mixShare is one operation kind's share of a schedule.
type mixShare struct {
	kind  uint8
	share float64
}

// genSchedule draws a fixed cyclic schedule: kinds by share, keys Zipf(1.1)
// over n (key 0 hottest).
func genSchedule(rng *rand.Rand, n int, mix []mixShare) []schedEntry {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	sched := make([]schedEntry, schedLen)
	for i := range sched {
		x := rng.Float64()
		kind := mix[len(mix)-1].kind
		for _, m := range mix {
			if x < m.share {
				kind = m.kind
				break
			}
			x -= m.share
		}
		sched[i] = schedEntry{kind: kind, key: uint32(zipf.Uint64()), aux: rng.Uint32()}
	}
	return sched
}

// newWorker makes a closed-loop worker that reserves room for the samples a
// window of the given length is expected to produce in each listed class.
func newWorker(id int, sched []schedEntry, seconds float64, opsPerSec int, classes ...int) *worker {
	w := &worker{id: id, sched: sched, sliceOps: make([]int64, 0, windowSlices)}
	for _, c := range classes {
		w.room[c] = int(seconds*float64(opsPerSec)) + 1024
	}
	return w
}

// served is one in-process wire server on loopback.
type served struct {
	addr  string
	ln    net.Listener
	srv   *wire.Server
	conns *wrap.ConnCounters // traffic of every accepted connection; nil when untraced
	done  chan struct{}
}

// serve starts a wire server over store. In a traced run the listener
// counts every connection's traffic.
func serve(store labbase.Store, traced bool) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{addr: ln.Addr().String(), ln: ln, srv: wire.NewServer(store), done: make(chan struct{})}
	s.srv.SetLogf(nil)
	accept := ln
	if traced {
		s.conns = &wrap.ConnCounters{}
		accept = wrap.Listener(ln, s.conns)
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(accept) // returns nil once stop closes the listener
	}()
	return s, nil
}

// stop drains the server and waits for its goroutines.
func (s *served) stop() {
	s.ln.Close()
	s.srv.Shutdown()
	<-s.done
}

// dialClients opens one connection per worker.
func dialClients(addr string, n int) ([]*wire.Client, error) {
	clients := make([]*wire.Client, n)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			for _, o := range clients[:i] {
				o.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

// traffic sums the servers' connection counters (zero when untraced).
func traffic(servers ...*served) (t wrap.ConnTotals) {
	for _, s := range servers {
		if s.conns != nil {
			c := s.conns.Load()
			t.Reads, t.Writes = t.Reads+c.Reads, t.Writes+c.Writes
			t.ReadBytes, t.WriteBytes = t.ReadBytes+c.ReadBytes, t.WriteBytes+c.WriteBytes
		}
	}
	return t
}

// closers is a stack of release functions, run last-added first.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c *closers) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}

// errWrong marks an operation that completed but answered wrongly.
func errWrong(format string, args ...any) error {
	return fmt.Errorf("self-check: "+format, args...)
}
