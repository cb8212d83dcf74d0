package shard

import (
	"sync"
	"time"

	"labflow/internal/metrics"
)

// routerMetrics aggregates the router's observability counters: one
// latency histogram per shard (time spent in wire round-trips against that
// shard) and a fan-out width distribution (how many shards each
// multi-shard operation touched). metrics.Hist is deliberately not
// thread-safe, so the router wraps the histograms in one leaf mutex; the
// record path is a handful of array increments, far below the wire
// round-trips it measures. The core records fan-outs into a nil
// *routerMetrics when its transport keeps none, so fanout accepts one.
type routerMetrics struct {
	mu        sync.Mutex
	perShard  []metrics.Hist
	fanouts   map[int]uint64
	failovers []uint64
}

func newRouterMetrics(shards int) *routerMetrics {
	return &routerMetrics{
		perShard:  make([]metrics.Hist, shards),
		fanouts:   make(map[int]uint64),
		failovers: make([]uint64, shards),
	}
}

// clock reads the time one shard operation begins; record, given it back
// when the operation ends, adds the elapsed time to the shard's histogram.
func (m *routerMetrics) clock() time.Time {
	return time.Now() //lint:allow wallclock latency measurement, reported not persisted
}

func (m *routerMetrics) record(k int, begin time.Time) {
	d := time.Since(begin) //lint:allow wallclock latency measurement, reported not persisted
	m.mu.Lock()
	m.perShard[k].Record(d)
	m.mu.Unlock()
}

// fanout records one multi-shard operation touching width shards.
func (m *routerMetrics) fanout(width int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.fanouts[width]++
	m.mu.Unlock()
}

// failover records one standby promotion for shard k.
func (m *routerMetrics) failover(k int) {
	m.mu.Lock()
	m.failovers[k]++
	m.mu.Unlock()
}

// RouterStats is a point-in-time copy of a router's metrics.
type RouterStats struct {
	// PerShard holds one latency histogram per shard (round-trip time of
	// every wire operation the router issued to it).
	PerShard []metrics.Hist
	// Fanouts maps fan-out width (shards touched by one multi-shard
	// operation) to occurrence count.
	Fanouts map[int]uint64
	// Failovers counts standby promotions per shard (0 or 1 per shard per
	// router lifetime — failover is single-shot).
	Failovers []uint64
}

// snapshot copies the counters for reporting.
func (m *routerMetrics) snapshot() RouterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := RouterStats{
		PerShard:  make([]metrics.Hist, len(m.perShard)),
		Fanouts:   make(map[int]uint64, len(m.fanouts)),
		Failovers: make([]uint64, len(m.failovers)),
	}
	copy(st.PerShard, m.perShard)
	for w, n := range m.fanouts {
		st.Fanouts[w] = n
	}
	copy(st.Failovers, m.failovers)
	return st
}
