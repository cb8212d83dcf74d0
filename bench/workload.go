package main

import (
	"time"

	"labflow/bench/wrap"
	"labflow/internal/storage"
)

// numWorkers is the closed loop's client count: one per CPU of the bench
// host. Lab stations wait for their reply before the next request, so a
// closed loop is the honest model; it can never overload its server.
const numWorkers = 2

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every data size (populations, trace fan-out) for the
	// package's own tests; 1 is the benchmark's size.
	scale float64
	// dir is where database files live for the run; it is inside the
	// checkout and removed afterwards.
	dir string
	// rules is the directory holding labflow1.lbq and provenance.lbq.
	rules string
}

// scaled shrinks a size by cfg.scale, never below floor.
func (c *config) scaled(n, floor int) int {
	v := int(float64(n) * c.scale)
	if v < floor {
		v = floor
	}
	return v
}

// setupTimes splits set-up time by phase, in seconds.
type setupTimes struct {
	generate, decode, preload, warmup float64
}

// classLat is one sample class's latency summary.
type classLat struct {
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
	N     int     `json:"samples"`
	// The per-chunk percentiles the two figures above are medians of.
	ChunkP50US []float64 `json:"chunk_p50_us"`
	ChunkP99US []float64 `json:"chunk_p99_us"`
}

// summarizeClass reduces one class's samples (per worker, in completion
// order) to its percentiles.
func summarizeClass(perWorker []samples) classLat {
	n := 0
	for _, s := range perWorker {
		n += len(s)
	}
	fine := sortedChunks(perWorker, p50Chunk)
	coarse := fine
	if n/p99Chunk < len(fine) { // too few samples for as many p99 chunks
		coarse = sortedChunks(perWorker, p99Chunk)
	}
	c50, c99 := chunkQuantiles(fine, 0.50), chunkQuantiles(coarse, 0.99)
	return classLat{P50US: median(c50), P99US: median(c99), N: n, ChunkP50US: c50, ChunkP99US: c99}
}

var classNames = [numClasses]string{"read", "write", "view", "join", "count", "closure", "scan"}

// measured is what one measured window produced.
type measured struct {
	seconds   float64
	ops       int64
	opsPerS   float64
	rates     []float64 // per slice (per pass on lf1-growth), in order
	attempted int64
	failed    int64
	firstErr  error
	class     [numClasses]classLat
	// Client operation counts by path and the solutions deductive queries
	// returned, the divisors of the per-layer metrics.
	reads, writes, queries, solutions int64
	// Space and heap gauges, read at a fixed data volume: after set-up's
	// warm-up, or on lf1-growth at the end of each pass.
	bytesPerUserByte float64
	liveHeapMB       float64
	// passes and intervals are lf1-growth's per-pass detail.
	passes    int
	intervals []intervalRow
}

// summarize reduces a window's samples to per-class percentiles.
func summarize(ws *windowStats) *measured {
	m := &measured{
		seconds: ws.seconds, ops: ws.ops, opsPerS: ws.opsPerS, rates: ws.rates,
		attempted: ws.attempted, failed: ws.failed, firstErr: ws.firstErr, solutions: ws.solutions,
	}
	for c := 0; c < numClasses; c++ {
		m.class[c] = summarizeClass(ws.lat[c])
	}
	m.writes = int64(m.class[clsWrite].N)
	m.queries = int64(m.class[clsView].N + m.class[clsJoin].N + m.class[clsCount].N + m.class[clsClosure].N)
	m.reads = int64(m.class[clsRead].N+m.class[clsScan].N) - m.queries
	return m
}

// layerCounters are the counts the layers themselves keep, sampled before
// and after a traced window.
type layerCounters struct {
	stats      storage.Stats
	conn       wrap.ConnTotals
	shardTrips []uint64 // wire round trips the router made, per shard
	fanoutOps  uint64   // multi-shard router operations
	fanoutSum  uint64   // shards touched by them
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs one closed-loop window of length d. With rec non-nil the
	// workers record client spans (the decorators installed at set-up record
	// the rest).
	measure(d time.Duration, rec *wrap.Recorder) (*measured, error)
	// counters samples the layers' own counters.
	counters() layerCounters
	// verify runs the end-state correctness checks; the instance serves no
	// further windows afterwards.
	verify(c *checks)
	// describe states data size against cache size and the flush policy.
	describe() map[string]any
	// close releases everything the instance holds.
	close()
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	// setup builds an instance. With rec non-nil every layer boundary is
	// decorated (recording only while rec is enabled).
	setup func(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error)
}

var workloads = []workloadDef{
	{"lf1-growth", "the paper's Section-10 run: storage pool, faulting, clustering and the labbase write path do the work; no wire, no datalog", setupLF1Growth},
	{"wire-read", "10 us round trips over an in-memory store: frame codec, dispatch, snapshot capture and decode cache do the work; storage none", setupWireRead},
	{"wire-write-durable", "fsynced commits over ostore: treap path copy, log append, group flush, fsync and checkpoint do the work", setupWireWriteDurable},
	{"query-mix", "deductive views, joins and lineage closures against a live writer: datalog resolution, tabling and lbq externs do the work", setupQueryMix},
	{"shard-mix", "a 2-shard router called directly: routing, fan-out and shard-order merge are all it adds over wire-read", setupShardMix},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
