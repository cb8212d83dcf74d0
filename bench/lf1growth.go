package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"labflow/bench/wrap"
	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/pagefile"
)

// lf1-growth replays one fixed, seeded LabFlow-1 trace into a fresh ostore
// database, over and over, for the length of the window. One replay is a
// pass. Every pass does identical work on identical bytes, so the storage
// counters (faults, page writes, file size) must repeat exactly from pass to
// pass, and the window's figures are medians over passes.
const (
	lf1BaseClones  = 60
	lf1Tclones     = 60
	lf1Intervals   = 4
	lf1PoolPages   = 192 // 1.5 MiB, as in the repository's Section-10 runs
	lf1TxnEvents   = 100 // trace events per transaction
	lf1ProbesPer   = 2   // most-recent probes per step
	lf1QueryEvery  = 500 // events between §8 counting/scan rounds
	lf1RecentPairs = 4096
)

const (
	evMaterial uint8 = iota
	evSet
	evStep
	evState
)

// lf1Event is one decoded trace event, ready to apply.
type lf1Event struct {
	kind      uint8
	id        uint64
	class     string
	name      string
	state     string
	validTime int64
	materials []uint64
	set       uint64
	attrs     []labbase.AttrValue
}

// lf1Probe is one scheduled most-recent lookup: a (material, attribute)
// pair some earlier step recorded, so it must be found.
type lf1Probe struct {
	mat  uint64
	attr string
}

// lf1Round is one §8 counting/scan round.
type lf1Round struct {
	after int // index of the event the round follows
	state string
	class string
	clone uint64 // root clone whose family history is scanned
}

// lf1Trace is the whole prepared input of a pass.
type lf1Trace struct {
	events []lf1Event
	// probes[probeAt[i]:probeAt[i+1]] are issued after the transaction
	// holding event i commits; rounds (ordered by event) likewise.
	probes  []lf1Probe
	probeAt []int32
	rounds  []lf1Round
	bounds  []int // bounds[k] = events applied when growth interval k ends
	maxID   uint64

	// End-state totals a correct replay must reproduce.
	materials map[string]uint64 // by class (subclasses not folded in)
	steps     map[string]uint64
	inState   map[string]uint64
}

// traceValue decodes a kind-tagged trace value (core.TraceValue) into a
// LabBase value, exactly as core.ReplayTrace does.
func traceValue(v core.TraceValue) (labbase.Value, error) {
	switch v.Kind {
	case "nil":
		return labbase.Nil(), nil
	case "int":
		return labbase.Int64(v.Int), nil
	case "float":
		return labbase.Float64(v.Float), nil
	case "string":
		return labbase.String(v.Str), nil
	case "bool":
		return labbase.Bool(v.Bool), nil
	case "oid":
		return labbase.Ref(storage.OID(v.OID)), nil
	case "list":
		out := make([]labbase.Value, len(v.List))
		for i, e := range v.List {
			var err error
			if out[i], err = traceValue(e); err != nil {
				return labbase.Nil(), err
			}
		}
		return labbase.ListOf(out...), nil
	}
	return labbase.Nil(), fmt.Errorf("unknown trace value kind %q", v.Kind)
}

// lf1Params are the generator parameters of a run. Scale comes from
// TclonesPerClone, whose cost is linear; BaseClones costs the generator
// quadratic time (every clone is searched against all earlier ones).
func lf1Params(cfg *config, base, tclones int) core.Params {
	p := core.DefaultParams()
	p.Seed = cfg.seed
	p.BaseClones = cfg.scaled(base, 8)
	p.TclonesPerClone = cfg.scaled(tclones, 4)
	p.Intervals = lf1Intervals
	return p
}

// generateLF1 runs the workload generator and decodes its event stream in
// memory, returning the decoded events and the two phases' durations.
func generateLF1(p core.Params) ([]core.TraceEvent, float64, float64, error) {
	t0 := nowNs()
	var buf bytes.Buffer
	n, err := core.GenerateTrace(&buf, p, p.Intervals)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("generate trace: %w", err)
	}
	t1 := nowNs()
	events := make([]core.TraceEvent, 0, n)
	dec := json.NewDecoder(&buf)
	for {
		var ev core.TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, 0, 0, fmt.Errorf("decode trace: %w", err)
		}
		events = append(events, ev)
	}
	return events, float64(t1-t0) / 1e9, float64(nowNs()-t1) / 1e9, nil
}

// prepareLF1 turns decoded trace events into a pass's input: applicable
// events, the seeded read schedule interleaved with them, the growth
// interval boundaries and the end-state totals.
func prepareLF1(raw []core.TraceEvent, p core.Params, seed int64) (*lf1Trace, error) {
	tr := &lf1Trace{
		events:    make([]lf1Event, len(raw)),
		probeAt:   make([]int32, len(raw)+1),
		materials: make(map[string]uint64),
		steps:     make(map[string]uint64),
		inState:   make(map[string]uint64),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1f1))
	var (
		pairs    []lf1Probe
		roots    []uint64
		stateOf  = make(map[uint64]string)
		perIntvl = (p.BaseClones + 1) / 2
		states   []string
		classes  []string
		seenSt   = make(map[string]bool)
		seenCl   = make(map[string]bool)
	)
	for i, ev := range raw {
		e := lf1Event{id: ev.ID, class: ev.Class, name: ev.Name, state: ev.State, validTime: ev.ValidTime, materials: ev.Materials, set: ev.Set}
		if ev.ID > tr.maxID {
			tr.maxID = ev.ID
		}
		switch ev.Kind {
		case "material":
			e.kind = evMaterial
			tr.materials[ev.Class]++
			if ev.State != "" {
				stateOf[ev.ID] = ev.State
			}
			// Root clones are injected at the start of each growth
			// interval, perIntvl at a time; the first root of interval k+1
			// closes interval k.
			if ev.Class == "clone" && len(ev.Name) > 0 && ev.Name[0] == 'c' {
				if len(roots) > 0 && len(roots)%perIntvl == 0 {
					tr.bounds = append(tr.bounds, i)
				}
				roots = append(roots, ev.ID)
			}
		case "set":
			e.kind = evSet
		case "step":
			e.kind = evStep
			tr.steps[ev.Class]++
			if !seenCl[ev.Class] {
				seenCl[ev.Class] = true
				classes = append(classes, ev.Class)
			}
			e.attrs = make([]labbase.AttrValue, len(ev.Attrs))
			for j, a := range ev.Attrs {
				v, err := traceValue(a.Value)
				if err != nil {
					return nil, err
				}
				e.attrs[j] = labbase.AttrValue{Name: a.Name, Value: v}
				for _, m := range ev.Materials {
					pairs = append(pairs, lf1Probe{mat: m, attr: a.Name})
				}
			}
			for j := 0; j < lf1ProbesPer && len(pairs) > 0; j++ {
				// Half the probes hit recently written pairs (hot, in the
				// pool), half any pair ever written (cold).
				lo := 0
				if j%2 == 0 && len(pairs) > lf1RecentPairs {
					lo = len(pairs) - lf1RecentPairs
				}
				tr.probes = append(tr.probes, pairs[lo+rng.Intn(len(pairs)-lo)])
			}
		case "state":
			e.kind = evState
			stateOf[ev.ID] = ev.State
			if !seenSt[ev.State] {
				seenSt[ev.State] = true
				states = append(states, ev.State)
			}
		default:
			return nil, fmt.Errorf("unknown trace event kind %q", ev.Kind)
		}
		tr.events[i] = e
		tr.probeAt[i+1] = int32(len(tr.probes))
		if (i+1)%lf1QueryEvery == 0 && len(states) > 0 && len(classes) > 0 {
			// An *old* family: a root clone from the first half of those
			// injected so far, whose audit trail has long left the pool.
			tr.rounds = append(tr.rounds, lf1Round{
				after: i,
				state: states[rng.Intn(len(states))],
				class: classes[rng.Intn(len(classes))],
				clone: roots[rng.Intn((len(roots)+1)/2)],
			})
		}
	}
	tr.bounds = append(tr.bounds, len(raw))
	for _, st := range stateOf {
		tr.inState[st]++
	}
	return tr, nil
}

// apply performs one trace event against store, mapping trace-local ids to
// real OIDs through oidOf (indexed by trace id).
func (e *lf1Event) apply(store labbase.Store, oidOf []storage.OID) (err error) {
	resolve := func(ids []uint64) []storage.OID {
		out := make([]storage.OID, len(ids))
		for i, id := range ids {
			out[i] = oidOf[id]
		}
		return out
	}
	switch e.kind {
	case evMaterial:
		oidOf[e.id], err = store.CreateMaterial(e.class, e.name, e.state, e.validTime)
	case evSet:
		oidOf[e.id], err = store.CreateMaterialSet(resolve(e.materials))
	case evStep:
		spec := labbase.StepSpec{Class: e.class, ValidTime: e.validTime, Materials: resolve(e.materials), Attrs: e.attrs}
		if e.set != 0 {
			spec.Set = oidOf[e.set]
		}
		oidOf[e.id], err = store.RecordStep(spec)
	case evState:
		err = store.SetState(oidOf[e.id], e.state)
	}
	return err
}

// intervalRow is one growth interval of a pass, the shape of the paper's
// Section-10 table.
type intervalRow struct {
	Interval   string  `json:"interval"`
	Events     int     `json:"events"`
	ElapsedS   float64 `json:"elapsed_s"`
	Faults     uint64  `json:"faults"`
	PageWrites uint64  `json:"page_writes"`
	SizeBytes  uint64  `json:"size_bytes"`
}

// lf1Pass is what one replay produced.
type lf1Pass struct {
	cut       bool // abandoned at the window's deadline, trace unfinished
	elapsed   float64
	ops       int64
	failed    int64
	firstErr  error
	stats     storage.Stats
	heapMB    float64
	intervals []intervalRow
}

// deterministic is the part of a pass that must repeat exactly.
func (p *lf1Pass) deterministic() [4]uint64 {
	return [4]uint64{p.stats.Faults, p.stats.PageWrites, p.stats.SizeBytes, p.stats.LiveBytes}
}

type lf1Instance struct {
	rec  *wrap.Recorder
	tr   *lf1Trace
	dir  string
	desc map[string]any

	clientRec         *wrap.Recorder // non-nil while a traced window runs
	read, write, scan samples
	last              storage.Stats // counters summed over every pass so far, for counters()
	first             *lf1Pass
	mismatch          string
}

func setupLF1Growth(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error) {
	var st setupTimes
	p := lf1Params(cfg, lf1BaseClones, lf1Tclones)
	raw, gen, dec, err := generateLF1(p)
	if err != nil {
		return nil, st, err
	}
	st.generate = gen
	t0 := nowNs()
	tr, err := prepareLF1(raw, p, cfg.seed)
	if err != nil {
		return nil, st, err
	}
	st.decode = dec + float64(nowNs()-t0)/1e9
	dir, err := os.MkdirTemp(cfg.dir, "lf1-")
	if err != nil {
		return nil, st, err
	}
	in := &lf1Instance{rec: rec, tr: tr, dir: dir}
	in.desc = map[string]any{
		"store": "ostore on disk, one fresh database per pass", "trace_events": len(tr.events), "probes": len(tr.probes),
		"base_clones": p.BaseClones, "tclones_per_clone": p.TclonesPerClone, "intervals": p.Intervals,
		"pool_pages": lf1PoolPages, "pool_bytes": lf1PoolPages * pagefile.PageSize,
		"flush_policy":         fmt.Sprintf("SyncLog=false (no fsync, as in the paper), checkpoint every %d commit groups", ostore.DefaultCheckpointEvery),
		"decode_cache_entries": labbase.DefaultCacheEntries, "clients": 1, "transport": "none (in-process labbase.DB)",
		"txn_events": lf1TxnEvents,
	}
	// Warm-up: the first twentieth of the trace into a scratch database.
	t0 = nowNs()
	if _, err := in.pass(len(tr.events)/20, 0, nil); err != nil {
		in.close()
		return nil, st, fmt.Errorf("warm-up: %w", err)
	}
	st.warmup = float64(nowNs()-t0) / 1e9
	return in, st, nil
}

// scanFamily reads a clone's full audit trail and, through its
// associate_tclone steps, every spawned tclone's trail.
func scanFamily(r labbase.Reader, clone storage.OID) error {
	hist, err := r.History(clone)
	if err != nil {
		return err
	}
	for _, h := range hist {
		step, err := r.GetStep(h.Step)
		if err != nil {
			return err
		}
		if step.Class != core.StepAssociateTclone {
			continue
		}
		for _, t := range step.Materials[1:] {
			thist, err := r.History(t)
			if err != nil {
				return err
			}
			for _, th := range thist {
				if _, err := r.GetStep(th.Step); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pass replays the first limit events of the trace into a fresh database
// and returns what it cost. A pass still running at deadline (nanoseconds
// on the benchmark clock; 0 = none) is abandoned there and marked cut. With
// c non-nil the finished database is checked against the trace's totals.
func (in *lf1Instance) pass(limit int, deadline int64, c *checks) (*lf1Pass, error) {
	dir, err := os.MkdirTemp(in.dir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ostore.db")
	opts := ostore.Options{Path: path, PoolPages: lf1PoolPages}
	if in.rec != nil {
		fb, err := pagefile.OpenFile(path)
		if err != nil {
			return nil, err
		}
		lf, err := wrap.OpenLog(path + ".log")
		if err != nil {
			fb.Close()
			return nil, err
		}
		opts.Backing, opts.Log = wrap.Backing(fb, in.rec), wrap.LogFile(lf, in.rec)
	}
	sm, err := ostore.Open(opts)
	if err != nil {
		return nil, err
	}
	dbh, store, err := openLabbase(sm, in.rec)
	if err != nil {
		sm.Close()
		return nil, err
	}
	defer dbh.Close()
	if err := store.Begin(); err != nil {
		return nil, err
	}
	if err := core.DefineSchema(store); err != nil {
		return nil, err
	}
	if err := store.Commit(); err != nil {
		return nil, err
	}

	tr := in.tr
	oidOf := make([]storage.OID, tr.maxID+1)
	res := &lf1Pass{}
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	span := func(cls int, t0, t1 int64) {
		if in.clientRec != nil {
			in.clientRec.Add(wrap.Span{Start: t0, End: t1, Layer: wrap.LayerClient, Op: classOps[cls], Worker: 0, Seq: uint32(res.ops)})
		}
	}
	base := sm.Stats()
	// account adds what this pass's storage manager has counted so far to
	// the instance's running totals (an abandoned pass did real work too).
	account := func() storage.Stats {
		end := sm.Stats()
		d := end.Sub(base)
		in.last.Faults += d.Faults
		in.last.PageWrites += d.PageWrites
		in.last.Reads += d.Reads
		in.last.Writes += d.Writes
		in.last.Allocs += d.Allocs
		in.last.LockWaits += d.LockWaits
		in.last.LiveBytes += end.LiveBytes
		return d
	}
	start := nowNs()
	intervalStart, intervalStats, k, nextRound := start, base, 0, 0
	for lo := 0; lo < limit; lo += lf1TxnEvents {
		hi := lo + lf1TxnEvents
		if hi > limit {
			hi = limit
		}
		t0 := nowNs()
		if deadline != 0 && t0 >= deadline {
			res.cut, res.stats = true, account()
			return res, nil
		}
		if err := store.Begin(); err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			if err := tr.events[i].apply(store, oidOf); err != nil {
				fail(fmt.Errorf("event %d: %w", i, err))
			}
		}
		if err := store.Commit(); err != nil {
			return nil, err
		}
		t1 := nowNs()
		in.write.add(t1 - t0)
		span(clsWrite, t0, t1)
		res.ops += int64(hi - lo)

		// The transaction's reads, issued after it commits as a separate
		// client would.
		for _, pr := range tr.probes[tr.probeAt[lo]:tr.probeAt[hi]] {
			t0 := nowNs()
			_, _, found, err := store.MostRecent(oidOf[pr.mat], pr.attr)
			t1 := nowNs()
			if err != nil {
				fail(err)
			} else if !found {
				fail(errWrong("most-recent miss on (%d, %s) after the step that recorded it", pr.mat, pr.attr))
			}
			in.read.add(t1 - t0)
			span(clsRead, t0, t1)
			res.ops++
		}
		for ; nextRound < len(tr.rounds) && tr.rounds[nextRound].after < hi; nextRound++ {
			rd := tr.rounds[nextRound]
			t0 := nowNs()
			if _, err := store.CountInState(rd.state); err != nil {
				fail(err)
			}
			if _, err := store.CountSteps(rd.class); err != nil {
				fail(err)
			}
			if _, err := store.MaterialsInState(rd.state); err != nil {
				fail(err)
			}
			if err := scanFamily(store, oidOf[rd.clone]); err != nil {
				fail(err)
			}
			t1 := nowNs()
			in.scan.add(t1 - t0)
			span(clsScan, t0, t1)
			res.ops += 4
		}
		for k < len(tr.bounds) && hi >= tr.bounds[k] {
			now, cur := nowNs(), sm.Stats()
			d := cur.Sub(intervalStats)
			res.intervals = append(res.intervals, intervalRow{
				Interval: fmt.Sprintf("%.1fX", float64(k+1)/2), Events: tr.bounds[k],
				ElapsedS: float64(now-intervalStart) / 1e9, Faults: d.Faults, PageWrites: d.PageWrites, SizeBytes: cur.SizeBytes,
			})
			intervalStart, intervalStats = now, cur
			k++
		}
	}
	res.elapsed = float64(nowNs()-start) / 1e9
	res.stats = account()
	res.heapMB = liveHeapMB()
	if c != nil {
		in.checkEndState(c, store)
	}
	return res, nil
}

// checkEndState compares the finished database with the trace's totals.
func (in *lf1Instance) checkEndState(c *checks, r labbase.Reader) {
	for class, want := range in.tr.steps {
		if got, err := r.CountSteps(class); err != nil || got != want {
			c.failf("CountSteps(%s) = %d (%v), trace recorded %d", class, got, err, want)
		}
	}
	// CountMaterials folds subclasses into their parent: material > clone >
	// tclone.
	m := in.tr.materials
	for class, want := range map[string]uint64{
		"tclone": m["tclone"], "clone": m["clone"] + m["tclone"], "material": m["material"] + m["clone"] + m["tclone"],
	} {
		if got, err := r.CountMaterials(class); err != nil || got != want {
			c.failf("CountMaterials(%s) = %d (%v), trace created %d", class, got, err, want)
		}
	}
	for state, want := range in.tr.inState {
		if got, err := r.CountInState(state); err != nil || got != want {
			c.failf("CountInState(%s) = %d (%v), trace left %d", state, got, err, want)
		}
	}
}

func (in *lf1Instance) measure(d time.Duration, rec *wrap.Recorder) (*measured, error) {
	in.read, in.write, in.scan = in.read[:0], in.write[:0], in.scan[:0]
	in.clientRec = rec
	defer func() { in.clientRec = nil }()
	var (
		passes   []*lf1Pass
		out      = &measured{}
		deadline = nowNs() + int64(d)
		start    = nowNs()
	)
	for len(passes) == 0 || nowNs() < deadline {
		// The window holds at least one whole pass.
		dl := deadline
		if len(passes) == 0 {
			dl = 0
		}
		p, err := in.pass(len(in.tr.events), dl, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if p.cut {
			break
		}
		if in.first == nil {
			in.first = p
		} else if p.deterministic() != in.first.deterministic() && in.mismatch == "" {
			in.mismatch = fmt.Sprintf("pass counters %v differ from the first pass's %v (faults, page_writes, size_bytes, live_bytes)",
				p.deterministic(), in.first.deterministic())
		}
	}
	out.seconds = float64(nowNs()-start) / 1e9
	// A pass cut off by the deadline still counts its operations and their
	// latencies; only whole passes have a rate, a heap and final counters.
	var rates, heaps []float64
	var last *lf1Pass
	for _, p := range passes {
		out.ops += p.ops
		out.attempted += p.ops + p.failed
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
		if p.cut {
			continue
		}
		rates = append(rates, float64(p.ops)/p.elapsed)
		heaps = append(heaps, p.heapMB)
		last = p
	}
	out.opsPerS, out.rates = median(rates), rates
	out.liveHeapMB = median(heaps)
	for cls, s := range map[int]samples{clsRead: in.read, clsWrite: in.write, clsScan: in.scan} {
		out.class[cls] = summarizeClass([]samples{s})
	}
	out.reads = int64(len(in.read) + len(in.scan))
	out.writes = int64(len(in.write))
	out.bytesPerUserByte = float64(last.stats.SizeBytes) / float64(last.stats.LiveBytes)
	in.desc["store_bytes"], in.desc["live_user_bytes"] = last.stats.SizeBytes, last.stats.LiveBytes
	out.passes = len(rates)
	out.intervals = last.intervals
	return out, nil
}

func (in *lf1Instance) counters() layerCounters { return layerCounters{stats: in.last} }

func (in *lf1Instance) verify(c *checks) {
	if in.mismatch != "" {
		c.failf("%s", in.mismatch)
	}
	// One more pass, unmeasured, whose end state is checked against the
	// trace's totals and whose counters must again match the first pass.
	p, err := in.pass(len(in.tr.events), 0, c)
	if err != nil {
		c.failf("verification pass: %v", err)
		return
	}
	if p.failed > 0 {
		c.failf("verification pass: %d operations failed: %v", p.failed, p.firstErr)
	}
	if in.first != nil && p.deterministic() != in.first.deterministic() {
		c.failf("verification pass counters %v differ from the first pass's %v", p.deterministic(), in.first.deterministic())
	}
}

func (in *lf1Instance) describe() map[string]any { return in.desc }
func (in *lf1Instance) close()                   { os.RemoveAll(in.dir) }
