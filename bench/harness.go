package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"labflow/bench/wrap"
)

// epoch is the base of the benchmark's monotonic clock.
var epoch = time.Now() //lint:allow wallclock monotonic base for latency measurement, never persisted

// nowNs returns nanoseconds since the process's clock base.
func nowNs() int64 {
	return int64(time.Since(epoch)) //lint:allow wallclock latency measurement, never persisted
}

// Latency sample classes. A worker files every timed round trip under one
// class; the end-to-end read and write metrics are taken from clsRead and
// clsWrite, the others are diagnostic breakdowns.
const (
	clsRead    = iota // point reads — or, on query-mix, every deductive query
	clsWrite          // one committed write round trip / replayed transaction
	clsView           // bound-material view query
	clsJoin           // state/2 + most_recent/3 join
	clsCount          // count_finished/1
	clsClosure        // derived_from/2 lineage closure
	clsScan           // §8 counting and history scans (lf1-growth)
	numClasses
)

var classOps = [numClasses]wrap.Op{
	wrap.OpClientRead, wrap.OpClientWrite, wrap.OpClientView, wrap.OpClientJoin,
	wrap.OpClientCount, wrap.OpClientClosure, wrap.OpClientScan,
}

// windowSlices is how many equal time slices a measured window is cut into.
// Throughput is the median of the slices' rates, latency percentiles the
// median of per-chunk percentiles, so one stall on a shared host moves one
// slice, not the result.
const windowSlices = 10

// Chunk sizes for sortedChunks: a percentile is only taken over a chunk
// that leaves about ten samples beyond it.
const (
	p50Chunk = 200
	p99Chunk = 1000
)

// samples holds one class's per-operation latencies in completion order,
// exact nanoseconds (saturating at ~4.29 s).
type samples []uint32

func (s *samples) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*s = append(*s, uint32(ns))
}

// quantile returns the q-quantile of an already sorted slice (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortedChunks cuts every worker's samples (each in completion order) into
// the same number of consecutive chunks — as many as leave perChunk samples
// each, at most windowSlices, at least one — pools chunk i across workers and
// sorts each pool.
func sortedChunks(perWorker []samples, perChunk int) [][]uint32 {
	n := 0
	for _, s := range perWorker {
		n += len(s)
	}
	if n == 0 {
		return nil
	}
	chunks := min(max(n/perChunk, 1), windowSlices)
	pools := make([][]uint32, chunks)
	for c := range pools {
		for _, s := range perWorker {
			pools[c] = append(pools[c], s[len(s)*c/chunks:len(s)*(c+1)/chunks]...)
		}
		slices.Sort(pools[c])
	}
	return pools
}

// chunkQuantiles takes the q-quantile of each sorted chunk, in microseconds.
func chunkQuantiles(chunks [][]uint32, q float64) []float64 {
	vals := make([]float64, len(chunks))
	for i, c := range chunks {
		vals[i] = quantile(c, q) / 1e3
	}
	return vals
}

// schedEntry is one pregenerated operation: what to do and to which key.
// Workers cycle through a fixed seeded schedule, so no generator runs inside
// a measured window.
type schedEntry struct {
	kind uint8
	key  uint32
	aux  uint32
}

const schedLen = 1 << 16

// worker is one closed-loop client: it issues its next operation only after
// the previous one has been answered.
type worker struct {
	id    int
	sched []schedEntry
	pos   int
	seq   uint32

	// exec performs one operation and reports its sample class, how many
	// logical operations it stands for (a k-step batch is k), an argument
	// for its trace span, and whether it failed or answered wrongly.
	exec func(w *worker, e schedEntry) (cls, ops int, arg uint32, err error)

	// room is the sample capacity to reserve per class before a window, so
	// the measured loop does not grow slices; the buffers are released after
	// each window so they never count as live heap.
	room      [numClasses]int
	lat       [numClasses]samples
	ops       int64   // logical operations completed in the current window
	sliceOps  []int64 // ops at the end of each finished slice
	attempted int64
	failed    int64
	firstErr  error
	solutions int64 // answers returned by this window's deductive queries
}

// maxWorkerFailures stops a worker whose server has plainly broken instead
// of letting it spin through failures for the whole window.
const maxWorkerFailures = 100

// windowStats is what one measured window produced.
type windowStats struct {
	seconds   float64
	ops       int64
	opsPerS   float64 // median over slices
	rates     []float64
	attempted int64
	failed    int64
	firstErr  error
	solutions int64
	lat       [numClasses][]samples // per class, per worker
}

// runWindow drives every worker in a closed loop for d — or, with maxOps
// positive, until the workers together have attempted that many operations,
// whichever comes first — and returns what they measured. With rec non-nil
// each operation also records a client span.
func runWindow(workers []*worker, d time.Duration, maxOps int64, rec *wrap.Recorder) *windowStats {
	for _, w := range workers {
		for c := range w.lat {
			w.lat[c] = make(samples, 0, w.room[c])
		}
		w.ops, w.attempted, w.failed, w.firstErr, w.solutions = 0, 0, 0, nil, 0
		w.sliceOps = w.sliceOps[:0]
	}
	slice := int64(d) / windowSlices
	quota := int64(math.MaxInt64)
	if maxOps > 0 {
		quota = (maxOps + int64(len(workers)) - 1) / int64(len(workers))
	}
	var wg sync.WaitGroup
	start := nowNs()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			nextSlice := start + slice
			t0 := nowNs()
			for len(w.sliceOps) < windowSlices && w.attempted < quota && w.failed < maxWorkerFailures {
				e := w.sched[w.pos]
				w.pos++
				if w.pos == len(w.sched) {
					w.pos = 0
				}
				w.seq++
				cls, ops, arg, err := w.exec(w, e)
				t1 := nowNs()
				w.attempted += int64(ops)
				if err != nil {
					w.failed += int64(ops)
					if w.firstErr == nil {
						w.firstErr = err
					}
				} else {
					w.ops += int64(ops)
					w.lat[cls].add(t1 - t0)
					if cls >= clsView && cls <= clsClosure {
						w.lat[clsRead].add(t1 - t0) // a query is query-mix's read
						w.solutions += int64(arg)
					}
				}
				if rec != nil {
					rec.Add(wrap.Span{
						Start: t0, End: t1,
						Layer: wrap.LayerClient, Op: classOps[cls],
						Worker: uint8(w.id), Seq: w.seq, Arg: arg,
					})
				}
				for t1 >= nextSlice && len(w.sliceOps) < windowSlices {
					w.sliceOps = append(w.sliceOps, w.ops)
					nextSlice += slice
				}
				t0 = t1
			}
		}(w)
	}
	wg.Wait()
	st := &windowStats{seconds: float64(nowNs()-start) / 1e9}
	rates := make([]float64, 0, windowSlices)
	for i := 0; i < windowSlices; i++ {
		var n int64
		for _, w := range workers {
			if i >= len(w.sliceOps) {
				continue
			}
			n += w.sliceOps[i]
			if i > 0 {
				n -= w.sliceOps[i-1]
			}
		}
		rates = append(rates, float64(n)/(float64(slice)/1e9))
	}
	st.opsPerS, st.rates = median(rates), rates
	for c := 0; c < numClasses; c++ {
		st.lat[c] = make([]samples, len(workers))
	}
	for i, w := range workers {
		st.ops += w.ops
		st.attempted += w.attempted
		st.failed += w.failed
		st.solutions += w.solutions
		if st.firstErr == nil {
			st.firstErr = w.firstErr
		}
		for c := range w.lat {
			st.lat[c][i] = w.lat[c]
			w.lat[c] = nil
		}
	}
	return st
}

// liveHeapMB forces a collection and returns the bytes of reachable heap
// objects, in MiB: what the store, its caches and version chains hold on to
// once the window's garbage is gone. (HeapAlloc after a completed collection,
// not HeapInuse: the latter also counts the free space in partly used spans,
// which depends on where the allocator happened to put things.)
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocCounters samples the process allocation counters.
func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checks collects failed correctness checks (the first twenty are kept; one
// is enough to make the run incorrect).
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool { return len(c.failures) == 0 }
