// Command lfload is the cluster driver: a closed loop of workers against
// labbase-server processes that are already running, reached through a
// shard.Router opened over -topology (shards.json, or host:port,host:port,...;
// a lone host:port is a one-shard topology — an unsharded server answers the
// handshake "shard 0 of 1"). It exists for what bench/ deliberately leaves
// out — multi-process clusters (cmd/lfcluster) and failover timing — and
// is a smoke and outage-timing tool, not a source of published numbers:
// for those use bench/ (BENCHMARK.json).
//
// Each worker calls the router directly and issues its next operation only
// after the previous one completes: a most-recent read with probability
// -readmix, else a one-step PutSteps. The draws come from a per-worker
// deterministic generator (rand.NewSource(seed + workerID)), so two runs
// with the same flags issue the identical operation sequence. Every read
// must find a value (the preload gives each material one step), or the run
// fails its self-check.
//
// With -retrydown an operation that fails while a shard is down is retried
// until the router has revived the shard or promoted its standby; the
// worst worker's cumulative outage is reported as downtime_ms.
//
// Usage:
//
//	lfload -topology shards.json -workers 16 -json
//	lfload -topology lab42:7047 -readmix 0.5 -ops 2000
//	lfload -topology shards.json -retrydown -retryfor 30s -json   # failover run
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/metrics"
	"labflow/internal/storage"
)

type config struct {
	topology  string
	workers   int
	readMix   float64
	materials int
	ops       int
	seed      int64
	retryDown bool
	retryFor  time.Duration
	jsonOut   bool
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
	flag.StringVar(&cfg.topology, "topology", "", "the cluster to drive: shards.json or host:port,host:port,... (required)")
	flag.IntVar(&cfg.workers, "workers", 4, "concurrent closed-loop workers")
	flag.Float64Var(&cfg.readMix, "readmix", 0.9, "fraction of operations that are reads (0..1)")
	flag.IntVar(&cfg.materials, "materials", 1000, "materials to preload")
	flag.IntVar(&cfg.ops, "ops", 20000, "total operations across all workers")
	flag.Int64Var(&cfg.seed, "seed", 1, "base RNG seed (worker i uses seed+i)")
	flag.BoolVar(&cfg.retryDown, "retrydown", false, "retry operations that fail while a shard is down instead of aborting (failover runs); cumulative per-worker outage time is reported as downtime_ms")
	flag.DurationVar(&cfg.retryFor, "retryfor", 30*time.Second, "give up after this much continuous downtime (with -retrydown)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON")
	flag.Parse()

	if cfg.topology == "" {
		log.Fatal("lfload: -topology is required (for in-process numbers use bench/)")
	}
	if cfg.workers < 1 || cfg.materials < 1 || cfg.ops < 1 || cfg.readMix < 0 || cfg.readMix > 1 {
		log.Fatal("lfload: invalid flags")
	}
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatalf("lfload: %v", err)
	}
}

// result is one worker's share of the run.
type result struct {
	rhist, whist  metrics.Hist
	reads, writes int
	downtime      time.Duration
	err           error
}

func run(cfg config, out io.Writer) error {
	topo, err := shard.ParseTopology(cfg.topology)
	if err != nil {
		return err
	}
	r, err := shard.OpenRouter(topo, shard.RouterOptions{})
	if err != nil {
		return err
	}
	// Close also commits a bracket a failed preload left open.
	defer r.Close()

	oids, err := preload(r, cfg)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	results := make([]result, cfg.workers)
	before := metrics.Sample()
	var wg sync.WaitGroup
	for i := range results {
		ops := cfg.ops / cfg.workers
		if i < cfg.ops%cfg.workers {
			ops++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(i, r, oids, ops, cfg, &results[i])
		}()
	}
	wg.Wait()
	wall := metrics.Sample().Sub(before).Wall

	var total result
	for i := range results {
		w := &results[i]
		if w.err != nil {
			return fmt.Errorf("worker %d: %w", i, w.err)
		}
		total.rhist.Merge(&w.rhist)
		total.whist.Merge(&w.whist)
		total.reads += w.reads
		total.writes += w.writes
		// The report's downtime is the worst worker's cumulative outage —
		// what a failover actually cost one closed loop end to end.
		total.downtime = max(total.downtime, w.downtime)
	}
	if total.reads+total.writes != cfg.ops {
		return fmt.Errorf("self-check: %d ops completed, want %d", total.reads+total.writes, cfg.ops)
	}
	if wall <= 0 {
		return fmt.Errorf("self-check: zero wall time")
	}
	return report(out, cfg, len(topo.Shards), wall, &total)
}

// preload defines the schema and creates the material population inside
// one write bracket, then gives each material one initial step so reads
// always hit.
func preload(db labbase.Store, cfg config) ([]storage.OID, error) {
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
	oids := make([]storage.OID, cfg.materials)
	for i := range oids {
		name := fmt.Sprintf("m-%d", i)
		// A material that is already there was populated by a previous run
		// (or a pre-failover round against the same cluster); reuse it so
		// repeated runs against persistent stores keep working.
		oid, found := db.LookupMaterial(name)
		if !found {
			var err error
			if oid, err = db.CreateMaterial(matClass, name, initState, int64(i)); err != nil {
				return nil, err
			}
		}
		oids[i] = oid
	}
	if err := db.Commit(); err != nil {
		return nil, err
	}
	// Seed one step per material, batched to keep the preload quick.
	const seedBatch = 256
	for lo := 0; lo < len(oids); lo += seedBatch {
		hi := min(lo+seedBatch, len(oids))
		specs := make([]labbase.StepSpec, 0, hi-lo)
		for i := lo; i < hi; i++ {
			specs = append(specs, measure(oids[i], int64(i), int64(i)))
		}
		if _, err := db.PutSteps(specs); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

func measure(oid storage.OID, validTime, reading int64) labbase.StepSpec {
	return labbase.StepSpec{
		Class:     stepClass,
		ValidTime: validTime,
		Materials: []storage.OID{oid},
		Attrs:     []labbase.AttrValue{{Name: attrName, Value: labbase.Int64(reading)}},
	}
}

// errSelfCheck marks result-integrity failures (a preloaded material with
// no most-recent value). These are never retried: a shard coming back
// without its committed data is the bug the self-check exists to catch.
var errSelfCheck = errors.New("self-check")

// worker runs one closed loop of ops operations against db and fills in
// res. Each successful call's latency is recorded once, reads and writes
// apart.
//
// With cfg.retryDown a failed call is retried every 50 ms until it succeeds
// or cfg.retryFor of continuous downtime has passed; the time from first
// failure to the retry that succeeds accumulates into res.downtime. That
// makes a failover visible as a downtime window instead of an aborted run;
// recovery itself — marking the shard down, reviving it or promoting its
// standby — is the router's. (A write retried across a failover may be
// applied twice — steps are append-only events, so nothing acknowledged is
// lost and a duplicate skews the server-side step count at worst.)
func worker(id int, db labbase.Store, oids []storage.OID, ops int, cfg config, res *result) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	attempt := func(hist *metrics.Hist, op func() error) error {
		start := time.Now() //lint:allow wallclock latency measurement, never persisted
		if err := op(); err != nil {
			return err
		}
		hist.Record(time.Since(start)) //lint:allow wallclock latency measurement, never persisted
		return nil
	}
	call := func(hist *metrics.Hist, op func() error) error {
		err := attempt(hist, op)
		if err == nil || !cfg.retryDown || errors.Is(err, errSelfCheck) {
			return err
		}
		outage := time.Now() //lint:allow wallclock downtime measurement, reported not persisted
		for {
			if time.Since(outage) > cfg.retryFor { //lint:allow wallclock downtime measurement, reported not persisted
				return fmt.Errorf("gave up after %v of downtime: %w", cfg.retryFor, err)
			}
			time.Sleep(50 * time.Millisecond)
			if err = attempt(hist, op); err == nil {
				res.downtime += time.Since(outage) //lint:allow wallclock downtime measurement, reported not persisted
				return nil
			}
			if errors.Is(err, errSelfCheck) {
				return err
			}
		}
	}
	validTime := int64(1 << 20) // past all preload times, so writes win most-recent
	for ; ops > 0 && res.err == nil; ops-- {
		oid := oids[rng.Intn(len(oids))]
		if rng.Float64() < cfg.readMix {
			res.reads++
			res.err = call(&res.rhist, func() error {
				_, _, found, err := db.MostRecent(oid, attrName)
				if err == nil && !found {
					err = fmt.Errorf("%w: most-recent miss on preloaded material", errSelfCheck)
				}
				return err
			})
		} else {
			res.writes++
			validTime++
			spec := []labbase.StepSpec{measure(oid, validTime, rng.Int63n(1<<30))}
			res.err = call(&res.whist, func() error {
				_, err := db.PutSteps(spec)
				return err
			})
		}
	}
}

// latencyUS summarizes one histogram for the report.
type latencyUS struct {
	Calls uint64  `json:"calls"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

func summarize(hist *metrics.Hist) latencyUS {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return latencyUS{
		Calls: hist.Count(),
		Min:   us(hist.Min()),
		P50:   us(hist.Quantile(0.5)),
		P90:   us(hist.Quantile(0.9)),
		P99:   us(hist.Quantile(0.99)),
		Max:   us(hist.Max()),
		Mean:  us(hist.Mean()),
	}
}

type jsonReport struct {
	Topology  string  `json:"topology"`
	Shards    int     `json:"shards"`
	Workers   int     `json:"workers"`
	ReadMix   float64 `json:"read_mix"`
	Seed      int64   `json:"seed"`
	Materials int     `json:"materials"`
	Ops       int     `json:"ops"`
	ReadOps   int     `json:"read_ops"`
	WriteOps  int     `json:"write_ops"`
	WallSecs  float64 `json:"wall_secs"`
	OpsPerSec float64 `json:"ops_per_sec"`
	RetryDown bool    `json:"retry_down,omitempty"`
	// DowntimeMS is the worst worker's cumulative outage time (first
	// failure to first subsequent success, summed over outages) — the
	// closed-loop cost of a failover. Only meaningful with -retrydown.
	DowntimeMS float64   `json:"downtime_ms"`
	ReadLatUS  latencyUS `json:"read_latency_us"`
	WriteLatUS latencyUS `json:"write_latency_us"`
}

func report(w io.Writer, cfg config, shards int, wall time.Duration, total *result) error {
	r := jsonReport{
		Topology: cfg.topology, Shards: shards, Workers: cfg.workers, ReadMix: cfg.readMix,
		Seed: cfg.seed, Materials: cfg.materials, Ops: cfg.ops,
		ReadOps: total.reads, WriteOps: total.writes,
		WallSecs: wall.Seconds(), OpsPerSec: float64(cfg.ops) / wall.Seconds(),
		RetryDown: cfg.retryDown, DowntimeMS: float64(total.downtime.Nanoseconds()) / 1e6,
		ReadLatUS: summarize(&total.rhist), WriteLatUS: summarize(&total.whist),
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&r)
	}
	fmt.Fprintf(w, "lfload: %d shards, %d workers, readmix %.2f, seed %d\n", shards, cfg.workers, cfg.readMix, cfg.seed)
	fmt.Fprintf(w, "  %d ops (%d reads, %d writes) over %d materials in %s\n",
		cfg.ops, r.ReadOps, r.WriteOps, cfg.materials, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput: %.0f ops/s\n", r.OpsPerSec)
	if cfg.retryDown {
		fmt.Fprintf(w, "  downtime: %s (worst worker, cumulative)\n", total.downtime.Round(time.Millisecond))
	}
	t := metrics.NewTable("latency us", "calls", "min", "p50", "p90", "p99", "max", "mean")
	for _, side := range []struct {
		label string
		l     latencyUS
	}{{"read", r.ReadLatUS}, {"write", r.WriteLatUS}} {
		if side.l.Calls == 0 {
			continue
		}
		cells := []string{side.label, fmt.Sprint(side.l.Calls)}
		for _, v := range []float64{side.l.Min, side.l.P50, side.l.P90, side.l.P99, side.l.Max, side.l.Mean} {
			cells = append(cells, fmt.Sprintf("%.1f", v))
		}
		t.Row(cells...)
	}
	return t.Write(w)
}
