package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"

	"labflow/bench/wrap"
)

// traceCapacity is the span log's size: 32 bytes a span, enough for the
// busiest traced window (lf1-growth records about ten spans per event).
const traceCapacity = 8 << 20

// traceFileSpans caps how many spans (earliest first) trace.jsonl holds; the
// per-layer figures always use every recorded span.
const traceFileSpans = 200000

// parentLayers lists, for each layer, the layers whose spans can be its
// direct parent.
var parentLayers = [wrap.NumLayers][]wrap.Layer{
	wrap.LayerQuery:   {wrap.LayerClient},
	wrap.LayerLabbase: {wrap.LayerClient},
	wrap.LayerReader:  {wrap.LayerQuery},
	wrap.LayerStorage: {wrap.LayerLabbase, wrap.LayerReader},
	wrap.LayerDevice:  {wrap.LayerStorage},
}

// Path buckets a labbase- or storage-level span is charged to.
const (
	pathRead = iota
	pathWrite
	pathQuery
	pathAmbiguous
	numPaths
)

// labbasePath is the path a labbase-level span lies on: calls on a held
// snapshot serve a deductive query, mutating entry points the write path,
// everything else a point read or scan.
func labbasePath(s *wrap.Span) int {
	switch {
	case s.Layer == wrap.LayerReader:
		return pathQuery
	case s.Op.Mutates():
		return pathWrite
	}
	return pathRead
}

// traceAnalysis is what the span log says about one traced window.
type traceAnalysis struct {
	spans   int
	dropped int64

	total   [wrap.NumLayers]int64 // summed span time per layer, ns
	orphan  [wrap.NumLayers]int64 // of it, in spans no candidate parent encloses
	labbase [numPaths]int64       // labbase-level span time by path
	storage [numPaths]int64       // storage span time by the path that caused it

	storageByOp  [wrap.NumOps]int64 // storage span time by call
	storageCalls [wrap.NumOps]int64
	deviceUnder  [wrap.NumOps]int64 // device span time by the storage call it ran under
	deviceByOp   [wrap.NumOps]int64 // device span time by call
	deviceCalls  [wrap.NumOps]int64
	deviceBytes  [wrap.NumOps]int64

	readerCalls   int64 // labbase.Reader calls made on held snapshots
	storageReads  [numPaths]int64
	commitNs      []uint32 // storage Commit spans
	deviceSyncNs  []uint32 // Backing.Sync and Log.Sync spans
	queryInterval int64    // count of LayerQuery spans
}

// analyze sorts the span log by start time and sweeps it once, giving every
// span its parent (the one span of a parent layer that encloses it, if
// exactly one does) and its request (the client span at the top of an
// unbroken parent chain). With out non-nil it also writes the earliest
// spans there as JSON lines.
func analyze(spans []wrap.Span, dropped int64, out *bufio.Writer) (*traceAnalysis, error) {
	a := &traceAnalysis{spans: len(spans), dropped: dropped}
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		x, y := &spans[i], &spans[j]
		return cmp.Or(
			cmp.Compare(x.Start, y.Start),
			cmp.Compare(y.End, x.End), // the enclosing span first
			cmp.Compare(x.Layer, y.Layer),
		)
	})
	parent := make([]int32, len(spans)) // index into spans; -1 none, -2 ambiguous
	rank := make([]int32, len(spans))   // position in start order, the id trace.jsonl uses
	var active [wrap.NumLayers][]int32
	var cands []int32
	for pos, si := range order {
		s := &spans[si]
		rank[si] = int32(pos)
		d := s.End - s.Start
		a.total[s.Layer] += d
		parent[si] = -1
		if s.Layer != wrap.LayerClient {
			cands = cands[:0]
			for _, pl := range parentLayers[s.Layer] {
				live := active[pl][:0]
				for _, ai := range active[pl] {
					if spans[ai].End < s.Start {
						continue // finished: drop from the active set
					}
					live = append(live, ai)
					if spans[ai].End >= s.End {
						cands = append(cands, ai)
					}
				}
				active[pl] = live
			}
			switch len(cands) {
			case 0:
				a.orphan[s.Layer] += d
			case 1:
				parent[si] = cands[0]
			default:
				parent[si] = -2
			}
		}
		if s.Layer != wrap.LayerDevice { // nothing nests under a device call
			active[s.Layer] = append(active[s.Layer], si)
		}

		switch s.Layer {
		case wrap.LayerQuery:
			a.queryInterval++
		case wrap.LayerLabbase, wrap.LayerReader:
			a.labbase[labbasePath(s)] += d
			if s.Layer == wrap.LayerReader {
				a.readerCalls++
			}
		case wrap.LayerStorage:
			a.storageByOp[s.Op] += d
			a.storageCalls[s.Op]++
			path := pathAmbiguous
			switch {
			case s.Op.Mutates():
				path = pathWrite
			case len(cands) > 0:
				// Manager.Read is the one call every path makes: charge it to
				// the path of the span that encloses it, or, when several
				// do, to their common path if they agree.
				path = labbasePath(&spans[cands[0]])
				for _, ci := range cands[1:] {
					if labbasePath(&spans[ci]) != path {
						path = pathAmbiguous
						break
					}
				}
			}
			a.storage[path] += d
			if s.Op == wrap.OpRead {
				a.storageReads[path]++
			}
			if s.Op == wrap.OpCommit {
				a.commitNs = append(a.commitNs, uint32(d))
			}
		case wrap.LayerDevice:
			// Only Commit flushes, and Commit never faults a page in: when
			// a concurrent call's span also encloses a device call, that
			// rules the wrong parent out.
			flush := s.Op != wrap.OpReadPage && s.Op != wrap.OpGrow
			under := wrap.NumOps
			for _, ci := range cands {
				if (spans[ci].Op == wrap.OpCommit) == flush {
					if under != wrap.NumOps && under != spans[ci].Op {
						under = wrap.NumOps
						break
					}
					under = spans[ci].Op
				}
			}
			if under != wrap.NumOps {
				a.deviceUnder[under] += d
			}
			a.deviceByOp[s.Op] += d
			a.deviceCalls[s.Op]++
			a.deviceBytes[s.Op] += int64(s.Arg)
			if s.Op == wrap.OpSync || s.Op == wrap.OpLogSync {
				a.deviceSyncNs = append(a.deviceSyncNs, uint32(d))
			}
		}
	}
	if out == nil {
		return a, nil
	}
	for pos, si := range order {
		if pos >= traceFileSpans {
			break
		}
		s := &spans[si]
		// A span inherits the request at the top of its parent chain when
		// every link of the chain is unambiguous.
		req, top := "null", si
		for spans[top].Layer != wrap.LayerClient && parent[top] >= 0 {
			top = parent[top]
		}
		if spans[top].Layer == wrap.LayerClient {
			req = fmt.Sprintf(`"w%d:%d"`, spans[top].Worker, spans[top].Seq)
		}
		par := "null"
		if parent[si] >= 0 {
			par = fmt.Sprint(rank[parent[si]])
		}
		if _, err := fmt.Fprintf(out, `{"id":%d,"name":"%s.%s","layer":"%s","op":"%s","start_ns":%d,"end_ns":%d,"request":%s,"parent":%s}`+"\n",
			pos, s.Layer, s.Op, s.Layer, s.Op, s.Start, s.End, req, par); err != nil {
			return nil, err
		}
	}
	return a, out.Flush()
}

// writeTraceFile analyzes the span log and writes its head to path.
func writeTraceFile(path string, spans []wrap.Span, dropped int64) (*traceAnalysis, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	a, err := analyze(spans, dropped, bufio.NewWriter(f))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return a, err
}

// sortedP50 returns the median of ns in microseconds.
func sortedP50(ns []uint32) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return quantile(s, 0.5) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerMetrics names every per-layer metric, with its unit and the
// direction that is better, in report order; BENCHMARK.json repeats it. A
// workload a metric does not apply to reports it as 0.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"read_p99_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"wire_self_us_per_op", "us", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"wire_conn_writes_per_op", "count", "lower"},
	{"labbase_self_us_per_read", "us", "lower"},
	{"labbase_self_us_per_write", "us", "lower"},
	{"labbase_self_us_per_query", "us", "lower"},
	{"labbase_storage_reads_per_read", "count", "lower"},
	{"storage_read_self_us_per_op", "us", "lower"},
	{"storage_write_self_us_per_op", "us", "lower"},
	{"storage_alloc_self_us_per_op", "us", "lower"},
	{"storage_commit_self_us_per_op", "us", "lower"},
	{"commit_us_p50", "us", "lower"},
	{"faults_per_kop", "count", "lower"},
	{"page_writes_per_op", "count", "lower"},
	{"pool_hit_ratio", "ratio", "higher"},
	{"lock_waits", "count", "lower"},
	{"device_write_bytes_per_user_byte", "ratio", "lower"},
	{"log_bytes_per_commit", "B", "lower"},
	{"device_syncs_per_commit", "count", "lower"},
	{"device_sync_us_p50", "us", "lower"},
	{"query_self_us_per_query", "us", "lower"},
	{"reader_calls_per_solution", "count", "lower"},
	{"query_view_p50_us", "us", "lower"},
	{"query_join_p50_us", "us", "lower"},
	{"closure_p50_us", "us", "lower"},
	{"shard_self_us_per_op", "us", "lower"},
	{"shard_fanout_per_op", "count", "lower"},
	{"shard_round_trips_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"setup_generate_s", "s", "lower"},
	{"setup_decode_s", "s", "lower"},
	{"setup_preload_s", "s", "lower"},
	{"trace_overhead_ratio", "ratio", "lower"},
	{"trace_self_sum_ratio", "ratio", "higher"},
	{"trace_orphan_ratio", "ratio", "lower"},
	{"trace_ambiguous_ratio", "ratio", "lower"},
	{"trace_spans", "count", "lower"},
	{"trace_spans_dropped", "count", "lower"},
}

// layerInputs is everything besides the span log the per-layer metrics are
// computed from.
type layerInputs struct {
	ref, traced   *measured     // the untraced reference and the traced window
	before, after layerCounters // around the traced window
	allocs, bytes uint64        // process allocation deltas over the reference window
	setup         setupTimes
}

// layerReport derives the per-layer metrics of one traced run.
func layerReport(a *traceAnalysis, in layerInputs) map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tr := in.traced
	ops := float64(tr.ops)
	st := in.after.stats.Sub(in.before.stats)
	conn := in.after.conn.Sub(in.before.conn)

	// Self times telescope: a layer's self time is its spans' time minus
	// the time of the spans one layer down that lie inside them.
	inside := func(l wrap.Layer) int64 { return a.total[l] - a.orphan[l] }
	clientSelf := a.total[wrap.LayerClient] - inside(wrap.LayerLabbase) - inside(wrap.LayerQuery)
	querySelf := a.total[wrap.LayerQuery] - inside(wrap.LayerReader)
	labbaseSelf := a.total[wrap.LayerLabbase] + a.total[wrap.LayerReader] - inside(wrap.LayerStorage)
	storageSelf := a.total[wrap.LayerStorage] - inside(wrap.LayerDevice)
	deviceSelf := a.total[wrap.LayerDevice]
	var orphans int64
	for l := wrap.LayerQuery; l < wrap.NumLayers; l++ {
		orphans += a.orphan[l]
	}
	client := float64(a.total[wrap.LayerClient])
	m["trace_self_sum_ratio"] = ratio(float64(clientSelf+querySelf+labbaseSelf+storageSelf+deviceSelf-orphans), client)
	m["trace_orphan_ratio"] = ratio(float64(orphans), client)
	m["trace_ambiguous_ratio"] = ratio(float64(a.storage[pathAmbiguous]), float64(a.total[wrap.LayerStorage]))
	m["trace_spans"] = float64(a.spans)
	m["trace_spans_dropped"] = float64(a.dropped)
	m["trace_overhead_ratio"] = ratio(in.ref.opsPerS, tr.opsPerS)

	if len(in.after.shardTrips) > 0 { // the client spans are router calls, not wire calls
		m["shard_self_us_per_op"] = ratio(us(clientSelf), ops)
		var trips uint64
		for k := range in.after.shardTrips {
			trips += in.after.shardTrips[k] - in.before.shardTrips[k]
		}
		m["shard_round_trips_per_op"] = ratio(float64(trips), ops)
		m["shard_fanout_per_op"] = ratio(float64(in.after.fanoutSum-in.before.fanoutSum), float64(in.after.fanoutOps-in.before.fanoutOps))
	} else {
		m["wire_self_us_per_op"] = ratio(us(clientSelf), ops)
	}
	m["wire_bytes_per_op"] = ratio(float64(conn.ReadBytes+conn.WriteBytes), ops)
	m["wire_conn_writes_per_op"] = ratio(float64(conn.Writes), ops)

	m["labbase_self_us_per_read"] = ratio(us(a.labbase[pathRead]-a.storage[pathRead]), float64(tr.reads))
	m["labbase_self_us_per_write"] = ratio(us(a.labbase[pathWrite]-a.storage[pathWrite]), float64(tr.writes))
	m["labbase_self_us_per_query"] = ratio(us(a.labbase[pathQuery]-a.storage[pathQuery]), float64(tr.queries))
	m["labbase_storage_reads_per_read"] = ratio(float64(a.storageReads[pathRead]), float64(tr.reads))

	// Storage self time by call: the call's spans minus the device time
	// that ran under them.
	self := func(calls ...wrap.Op) (ns int64) {
		for _, op := range calls {
			ns += a.storageByOp[op] - a.deviceUnder[op]
		}
		return ns
	}
	touch := float64(a.storageCalls[wrap.OpRead] + a.storageCalls[wrap.OpWrite] + a.storageCalls[wrap.OpAllocate] +
		a.storageCalls[wrap.OpAllocateCluster] + a.storageCalls[wrap.OpAllocateNear])
	m["storage_read_self_us_per_op"] = ratio(us(self(wrap.OpRead)), ops)
	m["storage_write_self_us_per_op"] = ratio(us(self(wrap.OpWrite)), ops)
	m["storage_alloc_self_us_per_op"] = ratio(us(self(wrap.OpAllocate, wrap.OpAllocateCluster, wrap.OpAllocateNear)), ops)
	m["storage_commit_self_us_per_op"] = ratio(us(self(wrap.OpCommit)), ops)
	m["commit_us_p50"] = sortedP50(a.commitNs)
	m["faults_per_kop"] = ratio(float64(st.Faults)*1e3, ops)
	m["page_writes_per_op"] = ratio(float64(st.PageWrites), ops)
	if touch > 0 {
		m["pool_hit_ratio"] = 1 - ratio(float64(st.Faults), touch)
	}
	m["lock_waits"] = float64(st.LockWaits)

	commits := float64(a.storageCalls[wrap.OpCommit])
	userBytes := float64(in.after.stats.LiveBytes) - float64(in.before.stats.LiveBytes)
	m["device_write_bytes_per_user_byte"] = ratio(float64(a.deviceBytes[wrap.OpWritePage]+a.deviceBytes[wrap.OpLogWriteAt]), userBytes)
	m["log_bytes_per_commit"] = ratio(float64(a.deviceBytes[wrap.OpLogWriteAt]), commits)
	m["device_syncs_per_commit"] = ratio(float64(len(a.deviceSyncNs)), commits)
	m["device_sync_us_p50"] = sortedP50(a.deviceSyncNs)

	m["query_self_us_per_query"] = ratio(us(querySelf), float64(a.queryInterval))
	m["reader_calls_per_solution"] = ratio(float64(a.readerCalls), float64(tr.solutions))
	m["read_p99_us"] = in.ref.class[clsRead].P99US
	m["write_p99_us"] = in.ref.class[clsWrite].P99US
	m["query_view_p50_us"] = in.ref.class[clsView].P50US
	m["query_join_p50_us"] = in.ref.class[clsJoin].P50US
	m["closure_p50_us"] = in.ref.class[clsClosure].P50US

	m["allocs_per_op"] = ratio(float64(in.allocs), float64(in.ref.ops))
	m["alloc_bytes_per_op"] = ratio(float64(in.bytes), float64(in.ref.ops))
	m["setup_generate_s"] = in.setup.generate
	m["setup_decode_s"] = in.setup.decode
	m["setup_preload_s"] = in.setup.preload
	return m
}

// printLayerTable writes the per-layer figures and the span totals behind
// them for a person to read.
func printLayerTable(w *bufio.Writer, a *traceAnalysis, m map[string]float64) {
	fmt.Fprintf(w, "  span time by layer (ms): ")
	for l := wrap.Layer(0); l < wrap.NumLayers; l++ {
		if l == wrap.LayerReader {
			continue // folded into labbase below
		}
		t := a.total[l]
		if l == wrap.LayerLabbase {
			t += a.total[wrap.LayerReader]
		}
		fmt.Fprintf(w, "%s %.1f  ", l, float64(t)/1e6)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  storage calls (count, ms): ")
	for op := wrap.Op(0); op < wrap.NumOps; op++ {
		if a.storageCalls[op] > 0 {
			fmt.Fprintf(w, "%s %d %.1f  ", op, a.storageCalls[op], float64(a.storageByOp[op])/1e6)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  device calls (count, ms, MB): ")
	for op := wrap.Op(0); op < wrap.NumOps; op++ {
		if a.deviceCalls[op] > 0 {
			fmt.Fprintf(w, "%s %d %.1f %.1f  ", op, a.deviceCalls[op], float64(a.deviceByOp[op])/1e6, float64(a.deviceBytes[op])/1e6)
		}
	}
	fmt.Fprintln(w)
	for _, pm := range perLayerMetrics {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", pm.name, m[pm.name], pm.unit)
	}
}
