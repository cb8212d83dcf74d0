// Command lfload is a closed-loop load generator for the LabBase data
// server: a fixed fleet of workers, each holding one connection, each
// issuing its next request only after the previous one completes. Closed
// loops measure the server's concurrency honestly — throughput rises with
// workers only if the server actually overlaps their requests.
//
// Each worker mixes most-recent reads and step-recording writes per
// -readmix, drawn from a per-worker deterministic generator
// (rand.NewSource(seed + workerID)), so two runs with the same flags issue
// the identical operation sequence. -querymix additionally diverts a
// fraction of operations to OpQuery requests — the signature most_recent
// lookup phrased through the deductive engine — which exercise the server's
// shared-mode query path. -lineagemix diverts a further fraction to recursive
// lineage closures (derived_from over a preloaded diamond derivation DAG) —
// the provenance workload's signature query, answered by the server's native
// closure externs — recorded in their own latency histogram. Reads are
// pipelined -pipeline deep; writes in a
// flight are batched into OpPutSteps frames of -writebatch steps (0 = the
// whole flight in one frame); queries are one synchronous round trip each.
// Read, write, and query latencies are recorded per round trip in separate
// fixed-bucket histograms (internal/metrics.Hist) and merged across workers
// at the end.
//
// With no -addr, lfload starts an in-process memstore server on loopback
// and tears it down afterwards — -shards N backs it with a hash-partitioned
// N-shard store.
//
// -topology (shards.json, or host:port,host:port,...) instead drives a
// shard cluster: lfload opens a shard.Router over the listed labbase-server
// processes (each started with -shard k/n) and fronts it with a loopback
// proxy server, so the same closed-loop workers measure multi-process
// scatter-gather over the wire.
//
// Usage:
//
//	lfload -workers 4 -readmix 0.95 -ops 20000            # in-process
//	lfload -workers 16 -readmix 0.0 -shards 4             # write scaling
//	lfload -addr lab42:7047 -workers 16 -pipeline 8 -json # remote server
//	lfload -topology shards.json -workers 16 -json        # shard cluster
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/lbq"
	"labflow/internal/metrics"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

type config struct {
	addr       string
	topology   string
	workers    int
	readMix    float64
	queryMix   float64
	lineageMix float64
	materials  int
	ops        int
	seed       int64
	pipeline   int
	writeBatch int
	shards     int
	retryDown  bool
	retryFor   time.Duration
	jsonOut    bool
}

// The preloaded schema: every material gets one "measure" step so that
// most-recent lookups during the run always find a value.
const (
	matClass  = "sample"
	stepClass = "measure"
	attrName  = "reading"
	initState = "received"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "server address (empty = in-process memstore server)")
	flag.StringVar(&cfg.topology, "topology", "", "shard cluster: shards.json or host:port,host:port,... (workers drive a router over the listed labbase-servers)")
	flag.IntVar(&cfg.workers, "workers", 4, "concurrent closed-loop workers")
	flag.Float64Var(&cfg.readMix, "readmix", 0.9, "fraction of operations that are reads (0..1)")
	flag.Float64Var(&cfg.queryMix, "querymix", 0, "fraction of operations that are deductive OpQuery requests (0..1)")
	flag.Float64Var(&cfg.lineageMix, "lineagemix", 0, "fraction of operations that are recursive lineage queries (derived_from closure) over a preloaded derivation DAG (0..1)")
	flag.IntVar(&cfg.materials, "materials", 1000, "materials to preload")
	flag.IntVar(&cfg.ops, "ops", 20000, "total operations across all workers")
	flag.Int64Var(&cfg.seed, "seed", 1, "base RNG seed (worker i uses seed+i)")
	flag.IntVar(&cfg.pipeline, "pipeline", 1, "requests in flight per worker round trip")
	flag.IntVar(&cfg.writeBatch, "writebatch", 0, "steps per OpPutSteps frame (0 = whole flight in one frame)")
	flag.IntVar(&cfg.shards, "shards", 1, "shard count for the in-process server")
	flag.BoolVar(&cfg.retryDown, "retrydown", false, "retry operations that fail while a shard is down instead of aborting (failover runs); cumulative per-worker outage time is reported as downtime_ms")
	flag.DurationVar(&cfg.retryFor, "retryfor", 30*time.Second, "give up after this much continuous downtime (with -retrydown)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON")
	flag.Parse()

	if cfg.workers < 1 || cfg.materials < 1 || cfg.ops < 1 || cfg.pipeline < 1 ||
		cfg.writeBatch < 0 || cfg.shards < 1 || cfg.readMix < 0 || cfg.readMix > 1 ||
		cfg.queryMix < 0 || cfg.queryMix > 1 || cfg.lineageMix < 0 || cfg.lineageMix > 1 {
		log.Fatal("lfload: invalid flags")
	}
	if cfg.addr != "" && cfg.shards != 1 {
		log.Fatal("lfload: -shards only applies to the in-process server")
	}
	if cfg.topology != "" && (cfg.addr != "" || cfg.shards != 1) {
		log.Fatal("lfload: -topology excludes -addr and -shards")
	}
	if err := run(cfg); err != nil {
		log.Fatalf("lfload: %v", err)
	}
}

func run(cfg config) error {
	addr := cfg.addr
	var stop func()
	if cfg.topology != "" {
		var err error
		addr, stop, err = startRouterProxy(cfg.topology)
		if err != nil {
			return err
		}
		defer stop()
	} else if addr == "" {
		var err error
		addr, stop, err = startInProcess(cfg.shards)
		if err != nil {
			return err
		}
		defer stop()
	}

	oids, err := preload(addr, cfg)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	linOids, err := preloadLineage(addr, cfg)
	if err != nil {
		return fmt.Errorf("preload lineage: %w", err)
	}

	clients := make([]*wire.Client, cfg.workers)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial worker %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	type workerResult struct {
		rhist    metrics.Hist
		whist    metrics.Hist
		qhist    metrics.Hist
		lhist    metrics.Hist
		reads    int
		writes   int
		queries  int
		lineage  int
		downtime time.Duration
		err      error
	}
	results := make([]workerResult, cfg.workers)
	perWorker := cfg.ops / cfg.workers
	extra := cfg.ops % cfg.workers

	before := metrics.Sample()
	done := make(chan int, cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		ops := perWorker
		if i < extra {
			ops++
		}
		go func(id, ops int) {
			r := &results[id]
			r.reads, r.writes, r.queries, r.lineage, r.downtime, r.err = worker(id, clients[id], addr, oids, linOids, ops, cfg, &r.rhist, &r.whist, &r.qhist, &r.lhist)
			done <- id
		}(i, ops)
	}
	for i := 0; i < cfg.workers; i++ {
		<-done
	}
	wall := metrics.Sample().Sub(before).Wall

	var rhist, whist, qhist, lhist metrics.Hist
	reads, writes, queries, lineage := 0, 0, 0, 0
	var downtime time.Duration
	for i := range results {
		if results[i].err != nil {
			return fmt.Errorf("worker %d: %w", i, results[i].err)
		}
		rhist.Merge(&results[i].rhist)
		whist.Merge(&results[i].whist)
		qhist.Merge(&results[i].qhist)
		lhist.Merge(&results[i].lhist)
		reads += results[i].reads
		writes += results[i].writes
		queries += results[i].queries
		lineage += results[i].lineage
		// The report's downtime is the worst worker's cumulative outage —
		// what a failover actually cost one closed loop end to end.
		if results[i].downtime > downtime {
			downtime = results[i].downtime
		}
	}

	if reads+writes+queries+lineage != cfg.ops {
		return fmt.Errorf("self-check: %d ops completed, want %d", reads+writes+queries+lineage, cfg.ops)
	}
	if wall <= 0 {
		return fmt.Errorf("self-check: zero wall time")
	}
	throughput := float64(cfg.ops) / wall.Seconds()
	if throughput <= 0 {
		return fmt.Errorf("self-check: zero throughput")
	}
	return report(os.Stdout, cfg, wall, throughput, reads, writes, queries, lineage, downtime, &rhist, &whist, &qhist, &lhist)
}

// startInProcess spins up a memstore-backed server on loopback, sharded
// when shards > 1.
func startInProcess(shards int) (addr string, stop func(), err error) {
	var db labbase.Store
	if shards == 1 {
		db, err = labbase.Open(memstore.Open("OStore-mm"), labbase.DefaultOptions())
	} else {
		managers := make([]storage.Manager, shards)
		for k := range managers {
			managers[k] = memstore.Open("OStore-mm")
		}
		db, err = shard.Open(managers, labbase.DefaultOptions())
	}
	if err != nil {
		return "", nil, err
	}
	srv := wire.NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(ln); err != nil {
			log.Printf("lfload: serve: %v", err)
		}
	}()
	stop = func() {
		ln.Close()
		srv.Shutdown()
		<-serveDone
	}
	return ln.Addr().String(), stop, nil
}

// startRouterProxy opens a shard.Router over the topology's labbase-server
// processes and fronts it with a loopback wire server, so the workers'
// pipelined clients drive the router exactly as they drive any server. The
// router's scatter-gather fans each multi-shard operation out to all
// cluster members concurrently; reads stay lock-free end to end.
func startRouterProxy(topo string) (addr string, stop func(), err error) {
	t, err := shard.ParseTopology(topo)
	if err != nil {
		return "", nil, err
	}
	r, err := shard.OpenRouter(t, shard.RouterOptions{})
	if err != nil {
		return "", nil, err
	}
	srv := wire.NewServer(r)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return "", nil, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(ln); err != nil {
			log.Printf("lfload: serve: %v", err)
		}
	}()
	stop = func() {
		ln.Close()
		srv.Shutdown()
		<-serveDone
		if err := r.Close(); err != nil {
			log.Printf("lfload: router close: %v", err)
		}
	}
	return ln.Addr().String(), stop, nil
}

// preload defines the schema and creates the material population, giving
// each material one initial step so reads always hit.
func preload(addr string, cfg config) ([]storage.OID, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.DefineMaterialClass(matClass, ""); err != nil {
		return nil, err
	}
	if _, err := c.DefineState(initState); err != nil {
		return nil, err
	}
	if _, _, err := c.DefineStepClass(stepClass, []labbase.AttrDef{{Name: attrName, Kind: labbase.KindInt}}); err != nil {
		return nil, err
	}
	oids := make([]storage.OID, cfg.materials)
	for i := range oids {
		name := fmt.Sprintf("m-%d", i)
		// A name collision means a previous run (or a pre-failover round
		// against the same cluster) already populated this material; reuse
		// it so repeated runs against persistent stores keep working.
		if oid, found, err := c.LookupMaterial(name); err != nil {
			return nil, err
		} else if found {
			oids[i] = oid
			continue
		}
		oid, err := c.CreateMaterial(matClass, name, initState, int64(i))
		if err != nil {
			return nil, err
		}
		oids[i] = oid
	}
	// Seed one step per material, batched to keep the preload quick.
	const seedBatch = 256
	for lo := 0; lo < len(oids); lo += seedBatch {
		hi := lo + seedBatch
		if hi > len(oids) {
			hi = len(oids)
		}
		specs := make([]labbase.StepSpec, 0, hi-lo)
		for i := lo; i < hi; i++ {
			specs = append(specs, labbase.StepSpec{
				Class:     stepClass,
				ValidTime: int64(i),
				Materials: []storage.OID{oids[i]},
				Attrs:     []labbase.AttrValue{{Name: attrName, Value: labbase.Int64(int64(i))}},
			})
		}
		if _, err := c.PutSteps(specs); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

// preloadLineage builds a diamond-shaped derivation DAG over the wire for
// -lineagemix: linDepth stacked split/merge stages of width linWidth, each
// "derive" step recording its input materials in the inputs attribute the
// native lineage externs traverse (see internal/lbq/lineage.go). It returns
// the nodes with at least one ancestor — every node except the root — so a
// lineage query on any of them yields a non-empty closure. Nil when the mix
// is zero: the preload traffic stays identical to pre-lineagemix runs.
func preloadLineage(addr string, cfg config) ([]storage.OID, error) {
	if cfg.lineageMix == 0 {
		return nil, nil
	}
	const (
		linDepth = 8
		linWidth = 2
		linClass = "derive"
	)
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	vt := int64(1 << 19) // past the preload seed steps, before the write window
	fresh := false
	mat := func(name string) (storage.OID, error) {
		if oid, found, err := c.LookupMaterial(name); err != nil {
			return 0, err
		} else if found {
			return oid, nil
		}
		fresh = true
		vt++
		return c.CreateMaterial(matClass, name, initState, vt)
	}
	root, err := mat("lin-m0")
	if err != nil {
		return nil, err
	}
	cur := root
	var nodes []storage.OID
	for i := 0; i < linDepth; i++ {
		var specs []labbase.StepSpec
		mids := make([]storage.OID, linWidth)
		midRefs := make([]labbase.Value, linWidth)
		for j := range mids {
			if mids[j], err = mat(fmt.Sprintf("lin-a%d-%d", i, j)); err != nil {
				return nil, err
			}
			midRefs[j] = labbase.Ref(mids[j])
			vt++
			specs = append(specs, labbase.StepSpec{
				Class: linClass, ValidTime: vt,
				Materials: []storage.OID{cur, mids[j]},
				Attrs:     []labbase.AttrValue{{Name: lbq.InputsAttr, Value: labbase.ListOf(labbase.Ref(cur))}},
			})
		}
		merge, err := mat(fmt.Sprintf("lin-m%d", i+1))
		if err != nil {
			return nil, err
		}
		vt++
		specs = append(specs, labbase.StepSpec{
			Class: linClass, ValidTime: vt,
			Materials: append(append([]storage.OID{}, mids...), merge),
			Attrs:     []labbase.AttrValue{{Name: lbq.InputsAttr, Value: labbase.ListOf(midRefs...)}},
		})
		// Re-runs against a persistent store find the materials already
		// present and skip the steps: the DAG's edges were committed with
		// the nodes, and re-deriving would only duplicate them.
		if fresh {
			if _, err := c.PutSteps(specs); err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, mids...)
		nodes = append(nodes, merge)
		cur = merge
	}
	return nodes, nil
}

// errSelfCheck marks result-integrity failures (a preloaded material with
// no most-recent value). These are never retried: a shard coming back
// without its committed data is the bug the self-check exists to catch.
var errSelfCheck = errors.New("self-check")

// worker runs one closed loop: build a flight of up to cfg.pipeline
// operations, issue it (reads pipelined, writes as OpPutSteps batches of
// cfg.writeBatch steps, 0 = one batch, deductive queries one synchronous
// round trip each), wait for every response, repeat. Read, write, and query
// latencies are recorded separately, once per successful round trip.
//
// With cfg.retryDown a failed round trip is retried — reconnecting first,
// since a transport error leaves the stream state unknown — until it
// succeeds or cfg.retryFor of continuous downtime has passed; the time
// from first failure to the retry that succeeds accumulates into downtime.
// That makes a failover visible as a downtime window instead of an aborted
// run. (A write retried across a failover may be applied twice — steps are
// append-only events, so a duplicate skews the mix accounting at worst.)
func worker(id int, c *wire.Client, addr string, oids, linOids []storage.OID, ops int, cfg config, rhist, whist, qhist, lhist *metrics.Hist) (reads, writes, queries, lineage int, downtime time.Duration, err error) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	p := c.Pipeline()
	orig := c
	defer func() {
		if c != orig {
			c.Close() // replacement from a reconnect; run() only closes orig
		}
	}()
	retry := func(op func() error) error {
		err := op()
		if err == nil || !cfg.retryDown || errors.Is(err, errSelfCheck) {
			return err
		}
		outage := time.Now() //lint:allow wallclock downtime measurement, reported not persisted
		for {
			if time.Since(outage) > cfg.retryFor { //lint:allow wallclock downtime measurement, reported not persisted
				return fmt.Errorf("gave up after %v of downtime: %w", cfg.retryFor, err)
			}
			time.Sleep(50 * time.Millisecond)
			if nc, derr := wire.Dial(addr); derr == nil {
				if c != orig {
					c.Close()
				}
				c, p = nc, nc.Pipeline()
			}
			if err = op(); err == nil {
				downtime += time.Since(outage) //lint:allow wallclock downtime measurement, reported not persisted
				return nil
			}
			if errors.Is(err, errSelfCheck) {
				return err
			}
		}
	}
	readOids := make([]storage.OID, 0, cfg.pipeline)
	futures := make([]*wire.MostRecentFuture, 0, cfg.pipeline)
	specs := make([]labbase.StepSpec, 0, cfg.pipeline)
	queryOids := make([]storage.OID, 0, cfg.pipeline)
	lineageOids := make([]storage.OID, 0, cfg.pipeline)
	validTime := int64(1 << 20) // past all preload times, so writes win most-recent
	for left := ops; left > 0; {
		flight := cfg.pipeline
		if flight > left {
			flight = left
		}
		readOids = readOids[:0]
		specs = specs[:0]
		queryOids = queryOids[:0]
		lineageOids = lineageOids[:0]
		for i := 0; i < flight; i++ {
			// The query draw is skipped entirely at -querymix 0, so the
			// operation sequence stays identical to pre-querymix runs.
			if cfg.queryMix > 0 && rng.Float64() < cfg.queryMix {
				queryOids = append(queryOids, oids[rng.Intn(len(oids))])
				continue
			}
			// Same guard for -lineagemix 0: no extra generator draws.
			if cfg.lineageMix > 0 && rng.Float64() < cfg.lineageMix {
				lineageOids = append(lineageOids, linOids[rng.Intn(len(linOids))])
				continue
			}
			if rng.Float64() < cfg.readMix {
				readOids = append(readOids, oids[rng.Intn(len(oids))])
			} else {
				validTime++
				specs = append(specs, labbase.StepSpec{
					Class:     stepClass,
					ValidTime: validTime,
					Materials: []storage.OID{oids[rng.Intn(len(oids))]},
					Attrs:     []labbase.AttrValue{{Name: attrName, Value: labbase.Int64(rng.Int63n(1 << 30))}},
				})
			}
		}
		if len(readOids) > 0 {
			if err := retry(func() error {
				futures = futures[:0]
				for _, o := range readOids {
					futures = append(futures, p.MostRecent(o, attrName))
				}
				start := time.Now() //lint:allow wallclock latency measurement, never persisted
				if err := p.Flush(); err != nil {
					return err
				}
				elapsed := time.Since(start) //lint:allow wallclock latency measurement, never persisted
				for _, f := range futures {
					if f.Err != nil {
						return f.Err
					}
					if !f.Found {
						return fmt.Errorf("%w: most-recent miss on preloaded material", errSelfCheck)
					}
				}
				rhist.Record(elapsed)
				return nil
			}); err != nil {
				return reads, writes, queries, lineage, downtime, err
			}
		}
		batch := cfg.writeBatch
		if batch <= 0 {
			batch = len(specs)
		}
		for lo := 0; lo < len(specs); lo += batch {
			hi := lo + batch
			if hi > len(specs) {
				hi = len(specs)
			}
			lo, hi := lo, hi
			if err := retry(func() error {
				start := time.Now() //lint:allow wallclock latency measurement, never persisted
				if _, err := c.PutSteps(specs[lo:hi]); err != nil {
					return err
				}
				whist.Record(time.Since(start)) //lint:allow wallclock latency measurement, never persisted
				return nil
			}); err != nil {
				return reads, writes, queries, lineage, downtime, err
			}
		}
		for _, q := range queryOids {
			q := q
			if err := retry(func() error {
				start := time.Now() //lint:allow wallclock latency measurement, never persisted
				sols, err := c.Query(fmt.Sprintf("most_recent(%d, %s, V)", uint64(q), attrName), 1)
				if err != nil {
					return err
				}
				qhist.Record(time.Since(start)) //lint:allow wallclock latency measurement, never persisted
				if len(sols) == 0 {
					return fmt.Errorf("%w: deductive query miss on preloaded material", errSelfCheck)
				}
				return nil
			}); err != nil {
				return reads, writes, queries, lineage, downtime, err
			}
		}
		// Lineage closures are the recursive provenance queries — one
		// synchronous round trip each, answered by the server's native
		// derived_from extern (visited-set BFS over the reverse involves
		// index), so their cost follows the DAG's edges, not its paths.
		for _, q := range lineageOids {
			q := q
			if err := retry(func() error {
				start := time.Now() //lint:allow wallclock latency measurement, never persisted
				sols, err := c.Query(fmt.Sprintf("derived_from(%d, A)", uint64(q)), 0)
				if err != nil {
					return err
				}
				lhist.Record(time.Since(start)) //lint:allow wallclock latency measurement, never persisted
				if len(sols) == 0 {
					return fmt.Errorf("%w: empty lineage closure on preloaded DAG node", errSelfCheck)
				}
				return nil
			}); err != nil {
				return reads, writes, queries, lineage, downtime, err
			}
		}
		reads += len(readOids)
		writes += len(specs)
		queries += len(queryOids)
		lineage += len(lineageOids)
		left -= flight
	}
	return reads, writes, queries, lineage, downtime, nil
}

// latencyUS summarizes one histogram for the JSON report.
type latencyUS struct {
	RoundTrips uint64  `json:"round_trips"`
	Min        float64 `json:"min"`
	P50        float64 `json:"p50"`
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
	Max        float64 `json:"max"`
	Mean       float64 `json:"mean"`
}

func summarize(hist *metrics.Hist) latencyUS {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return latencyUS{
		RoundTrips: hist.Count(),
		Min:        us(hist.Min()),
		P50:        us(hist.Quantile(0.5)),
		P90:        us(hist.Quantile(0.9)),
		P99:        us(hist.Quantile(0.99)),
		Max:        us(hist.Max()),
		Mean:       us(hist.Mean()),
	}
}

type jsonReport struct {
	Addr       string  `json:"addr"`
	Topology   string  `json:"topology,omitempty"`
	Workers    int     `json:"workers"`
	ReadMix    float64 `json:"read_mix"`
	QueryMix   float64 `json:"query_mix"`
	Pipeline   int     `json:"pipeline"`
	WriteBatch int     `json:"write_batch"`
	Shards     int     `json:"shards"`
	Seed       int64   `json:"seed"`
	Materials  int     `json:"materials"`
	Ops        int     `json:"ops"`
	ReadOps    int     `json:"read_ops"`
	WriteOps   int     `json:"write_ops"`
	QueryOps   int     `json:"query_ops"`
	LineageMix float64 `json:"lineage_mix"`
	LineageOps int     `json:"lineage_ops"`
	WallSecs   float64 `json:"wall_secs"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	RetryDown  bool    `json:"retry_down,omitempty"`
	// DowntimeMS is the worst worker's cumulative outage time (first
	// failure to first subsequent success, summed over outages) — the
	// closed-loop cost of a failover. Only meaningful with -retrydown.
	DowntimeMS   float64   `json:"downtime_ms"`
	ReadLatUS    latencyUS `json:"read_round_trip_latency_us"`
	WriteLatUS   latencyUS `json:"write_round_trip_latency_us"`
	QueryLatUS   latencyUS `json:"query_round_trip_latency_us"`
	LineageLatUS latencyUS `json:"lineage_round_trip_latency_us"`
}

func report(w io.Writer, cfg config, wall time.Duration, throughput float64, reads, writes, queries, lineage int, downtime time.Duration, rhist, whist, qhist, lhist *metrics.Hist) error {
	if cfg.jsonOut {
		var r jsonReport
		r.Addr = cfg.addr
		r.Topology = cfg.topology
		r.Workers = cfg.workers
		r.ReadMix = cfg.readMix
		r.QueryMix = cfg.queryMix
		r.Pipeline = cfg.pipeline
		r.WriteBatch = cfg.writeBatch
		r.Shards = cfg.shards
		r.Seed = cfg.seed
		r.Materials = cfg.materials
		r.Ops = cfg.ops
		r.ReadOps = reads
		r.WriteOps = writes
		r.QueryOps = queries
		r.LineageMix = cfg.lineageMix
		r.LineageOps = lineage
		r.WallSecs = wall.Seconds()
		r.OpsPerSec = throughput
		r.RetryDown = cfg.retryDown
		r.DowntimeMS = float64(downtime.Nanoseconds()) / 1e6
		r.ReadLatUS = summarize(rhist)
		r.WriteLatUS = summarize(whist)
		r.QueryLatUS = summarize(qhist)
		r.LineageLatUS = summarize(lhist)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&r)
	}
	fmt.Fprintf(w, "lfload: %d workers, readmix %.2f, querymix %.2f, lineagemix %.2f, pipeline %d, writebatch %d, shards %d, seed %d\n",
		cfg.workers, cfg.readMix, cfg.queryMix, cfg.lineageMix, cfg.pipeline, cfg.writeBatch, cfg.shards, cfg.seed)
	fmt.Fprintf(w, "  %d ops (%d reads, %d writes, %d queries, %d lineage) over %d materials in %s\n",
		cfg.ops, reads, writes, queries, lineage, cfg.materials, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput: %.0f ops/s\n", throughput)
	if cfg.retryDown {
		fmt.Fprintf(w, "  downtime: %s (worst worker, cumulative)\n", downtime.Round(time.Millisecond))
	}
	for _, side := range []struct {
		label string
		hist  *metrics.Hist
	}{{"read round-trip latency", rhist}, {"write round-trip latency", whist}, {"query round-trip latency", qhist}, {"lineage round-trip latency", lhist}} {
		if side.hist.Count() == 0 {
			continue
		}
		l := summarize(side.hist)
		t := metrics.NewTable(side.label, "us")
		t.Row("min", fmt.Sprintf("%.1f", l.Min))
		t.Row("p50", fmt.Sprintf("%.1f", l.P50))
		t.Row("p90", fmt.Sprintf("%.1f", l.P90))
		t.Row("p99", fmt.Sprintf("%.1f", l.P99))
		t.Row("max", fmt.Sprintf("%.1f", l.Max))
		t.Row("mean", fmt.Sprintf("%.1f", l.Mean))
		if err := t.Write(w); err != nil {
			return err
		}
	}
	return nil
}
