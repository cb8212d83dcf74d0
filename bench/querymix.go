package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"labflow/bench/wrap"
	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

// query-mix: deductive queries over a small LabFlow-1 database plus a
// diamond derivation DAG, against a live writer.
const (
	qmBaseClones = 60
	qmTclones    = 20
	qmDagDepth   = 32
	qmDagWidth   = 2
	qmNoteClass  = "bench_note" // the writer's step class; no view reads it
	qmJoinMax    = 10
)

// Schedule kinds; a schedule entry's key picks a query from its kind's list.
const (
	kqView uint8 = iota
	kqJoin
	kqCount
	kqClosure
	kqPut
)

// query is one prepared deductive query and the answer-set size the
// quiescent database gives it. The writer only adds bench_note steps, which
// no view, join or closure reads, so sizes hold throughout the window.
type query struct {
	text   string
	max    int
	expect int
}

type queryInstance struct {
	db      *labbase.DB
	local   *lbq.Bridge // in-process reference evaluator over the same store
	srv     *served
	clients []*wire.Client
	workers []*worker
	sm      storage.Manager
	desc    map[string]any

	bytesPerUserByte float64
	liveHeapMB       float64

	byKind  [4][]query
	targets []storage.OID // materials the writer appends notes to
	nAcked  []int64
}

// consultRules loads the repository's site rules onto an engine.
func consultRules(b *lbq.Bridge, dir string) error {
	for _, name := range []string{"labflow1.lbq", "provenance.lbq"} {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("rules: %w", err)
		}
		if err := b.Engine().Consult(string(src)); err != nil {
			return fmt.Errorf("consult %s: %w", name, err)
		}
	}
	return nil
}

// buildDiamond adds a depth x width diamond derivation DAG to db (the shape
// core.BuildProvDAG generates into a store of its own) and returns every
// node that has at least one ancestor.
func buildDiamond(db labbase.Store, depth, width int) ([]storage.OID, error) {
	if _, err := db.DefineMaterialClass("prov_mat", ""); err != nil {
		return nil, err
	}
	if _, err := db.DefineState("made"); err != nil {
		return nil, err
	}
	vt := int64(1) << 24
	mat := func(tag string) (storage.OID, error) {
		vt++
		return db.CreateMaterial("prov_mat", "p_"+tag, "made", vt)
	}
	derive := func(inputs, outputs []storage.OID) error {
		vt++
		ins := make([]labbase.Value, len(inputs))
		for i, in := range inputs {
			ins[i] = labbase.Ref(in)
		}
		_, err := db.RecordStep(labbase.StepSpec{
			Class: "derive", ValidTime: vt,
			Materials: append(append([]storage.OID{}, inputs...), outputs...),
			Attrs:     []labbase.AttrValue{{Name: lbq.InputsAttr, Value: labbase.ListOf(ins...)}},
		})
		return err
	}
	cur, err := mat("m0")
	if err != nil {
		return nil, err
	}
	var nodes []storage.OID
	for i := 0; i < depth; i++ {
		mids := make([]storage.OID, width)
		for j := range mids {
			if mids[j], err = mat(fmt.Sprintf("a%d_%d", i, j)); err != nil {
				return nil, err
			}
			if err := derive([]storage.OID{cur}, mids[j:j+1]); err != nil {
				return nil, err
			}
		}
		merge, err := mat(fmt.Sprintf("m%d", i+1))
		if err != nil {
			return nil, err
		}
		if err := derive(mids, []storage.OID{merge}); err != nil {
			return nil, err
		}
		nodes = append(append(nodes, mids...), merge)
		cur = merge
	}
	return nodes, nil
}

func setupQueryMix(cfg *config, rec *wrap.Recorder) (instance, setupTimes, error) {
	var st setupTimes
	p := lf1Params(cfg, qmBaseClones, qmTclones)
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

	t0 = nowNs()
	sm := memstore.Open("OStore-mm")
	db, store, err := openLabbase(sm, rec)
	if err != nil {
		return nil, st, err
	}
	q := &queryInstance{db: db, sm: sm, nAcked: make([]int64, numWorkers)}
	fail := func(err error) (instance, setupTimes, error) {
		q.close()
		return nil, st, err
	}
	if err := db.Begin(); err != nil {
		return fail(err)
	}
	if err := core.DefineSchema(db); err != nil {
		return fail(err)
	}
	if _, _, err := db.DefineStepClass(qmNoteClass, []labbase.AttrDef{{Name: attrName, Kind: labbase.KindInt}}); err != nil {
		return fail(err)
	}
	oidOf := make([]storage.OID, tr.maxID+1)
	for i := range tr.events {
		if err := tr.events[i].apply(db, oidOf); err != nil {
			return fail(fmt.Errorf("preload event %d: %w", i, err))
		}
	}
	depth := cfg.scaled(qmDagDepth, 4)
	nodes, err := buildDiamond(db, depth, qmDagWidth)
	if err != nil {
		return fail(err)
	}
	if err := db.Commit(); err != nil {
		return fail(err)
	}
	for _, e := range tr.events {
		if e.kind == evMaterial {
			q.targets = append(q.targets, oidOf[e.id])
		}
	}

	// The query lists, from what the trace recorded.
	var tclones, clones []storage.OID
	seen := make(map[uint64]bool)
	for _, e := range tr.events {
		if e.kind != evStep || len(e.materials) == 0 || seen[e.materials[0]] {
			continue
		}
		switch e.class {
		case core.StepDetermineSeq:
			seen[e.materials[0]] = true
			tclones = append(tclones, oidOf[e.materials[0]])
		case core.StepBlastSearch:
			seen[e.materials[0]] = true
			clones = append(clones, oidOf[e.materials[0]])
		}
	}
	q.local = lbq.New(db)
	if err := consultRules(q.local, cfg.rules); err != nil {
		return fail(err)
	}
	add := func(kind uint8, text string, max int, keepEmpty bool) error {
		n, err := q.localSize(text, max)
		if err != nil {
			return fmt.Errorf("%s: %w", text, err)
		}
		if n > 0 || keepEmpty {
			q.byKind[kind] = append(q.byKind[kind], query{text: text, max: max, expect: n})
		}
		return nil
	}
	for _, t := range tclones {
		if err := add(kqView, fmt.Sprintf("tclone_quality(%d, Q)", uint64(t)), 0, false); err != nil {
			return fail(err)
		}
	}
	for _, c := range clones {
		if err := add(kqView, fmt.Sprintf("homology_hit(%d, Acc, Score)", uint64(c)), 0, false); err != nil {
			return fail(err)
		}
	}
	for _, j := range []struct{ state, attr string }{
		{core.StTcloneDone, "quality"}, {core.StTcloneDone, "sequence"}, {core.StTcloneMapped, "position"},
		{core.StCloneDone, "coverage"}, {core.StCloneDone, "num_hits"}, {core.StCloneBlasted, "coverage"},
	} {
		if err := add(kqJoin, fmt.Sprintf("state(M, %s), most_recent(M, %s, V)", j.state, j.attr), qmJoinMax, false); err != nil {
			return fail(err)
		}
	}
	if err := add(kqCount, "count_finished(N)", 0, true); err != nil {
		return fail(err)
	}
	for _, n := range nodes {
		if err := add(kqClosure, fmt.Sprintf("derived_from(%d, A)", uint64(n)), 0, false); err != nil {
			return fail(err)
		}
	}
	for kind, name := range []string{"view", "join", "count", "closure"} {
		if len(q.byKind[kind]) == 0 {
			return fail(fmt.Errorf("no %s query has a non-empty answer at this scale", name))
		}
	}
	st.preload = float64(nowNs()-t0) / 1e9

	if q.srv, err = serve(store, rec != nil); err != nil {
		return fail(err)
	}
	if err := consultRules(q.srv.srv.Bridge(), cfg.rules); err != nil {
		return fail(err)
	}
	if q.clients, err = dialClients(q.srv.addr, numWorkers); err != nil {
		return fail(err)
	}
	// count_finished enumerates every clone and tclone: one costs about 150
	// views. At 5% of operations it would be two thirds of the window's
	// time, with a snapshot pinned throughout, and every other class would
	// be measured in its shadow; at 0.25% it is about a quarter of the time.
	mix := []mixShare{{kqView, 0.7475}, {kqJoin, 0.15}, {kqCount, 0.0025}, {kqClosure, 0.05}, {kqPut, 0.05}}
	for id := 0; id < numWorkers; id++ {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(id)))
		w := newWorker(id, genSchedule(rng, len(q.targets), mix), cfg.seconds, 30000,
			clsRead, clsWrite, clsView, clsJoin, clsCount, clsClosure)
		w.exec = q.exec
		q.workers = append(q.workers, w)
	}
	q.desc = map[string]any{
		"store": "memstore (all data in memory)", "base_clones": p.BaseClones, "tclones_per_clone": p.TclonesPerClone,
		"trace_events": len(tr.events), "dag": fmt.Sprintf("diamond depth %d width %d", depth, qmDagWidth),
		"rules": "rules/labflow1.lbq + rules/provenance.lbq", "decode_cache_entries": labbase.DefaultCacheEntries,
		"distinct_queries": map[string]int{"view": len(q.byKind[kqView]), "join": len(q.byKind[kqJoin]), "count": len(q.byKind[kqCount]), "closure": len(q.byKind[kqClosure])},
		"clients":          numWorkers, "transport": "loopback TCP, depth 1",
		"mix": "74.75% bound-material views, 15% state+most_recent joins (max 10), 0.25% count_finished, 5% derived_from closures, 5% one-step PutSteps",
	}
	if st.warmup, err = warmup(q.workers, int64(cfg.scaled(16000, 500))); err != nil {
		return fail(err)
	}
	q.bytesPerUserByte, q.liveHeapMB = gauges(0, sm.Stats().LiveBytes, q.desc)
	return q, st, nil
}

// localSize evaluates a query in process, on a snapshot of the store the
// server serves, and returns its answer-set size.
func (q *queryInstance) localSize(text string, max int) (int, error) {
	snap, err := q.db.Snapshot()
	if err != nil {
		return 0, err
	}
	defer snap.Close()
	sols, err := q.local.QueryOn(snap, text, max)
	return len(sols), err
}

var queryClass = [4]int{clsView, clsJoin, clsCount, clsClosure}

func (q *queryInstance) exec(w *worker, e schedEntry) (cls, ops int, arg uint32, err error) {
	c := q.clients[w.id]
	if e.kind == kqPut {
		k := ownKey(int(e.key), w.id, numWorkers, len(q.targets))
		vt := writeTimeBase + int64(w.seq)
		spec := oneStep(q.targets[k], vt, vt)
		spec.Class = qmNoteClass
		oids, err := c.PutSteps([]labbase.StepSpec{spec})
		if err != nil {
			return clsWrite, 1, 1, err
		}
		if len(oids) != 1 {
			return clsWrite, 1, 1, errWrong("PutSteps of 1 step acknowledged %d", len(oids))
		}
		q.nAcked[w.id]++
		return clsWrite, 1, 1, nil
	}
	list := q.byKind[e.kind]
	qu := list[int(e.key)%len(list)]
	cls = queryClass[e.kind]
	sols, err := c.Query(qu.text, qu.max)
	if err != nil {
		return cls, 1, 0, err
	}
	if len(sols) != qu.expect {
		return cls, 1, uint32(len(sols)), errWrong("%s returned %d solutions, want %d", qu.text, len(sols), qu.expect)
	}
	return cls, 1, uint32(len(sols)), nil
}

func (q *queryInstance) measure(d time.Duration, rec *wrap.Recorder) (*measured, error) {
	out := summarize(runWindow(q.workers, d, 0, rec))
	out.bytesPerUserByte, out.liveHeapMB = q.bytesPerUserByte, q.liveHeapMB
	return out, nil
}

func (q *queryInstance) counters() layerCounters {
	return layerCounters{stats: q.sm.Stats(), conn: traffic(q.srv)}
}

// verify re-runs every prepared query over the wire and in process on the
// now quiescent store: the two answer sets must have the same size, and the
// size the workers were checking against.
func (q *queryInstance) verify(c *checks) {
	for kind := range q.byKind {
		for _, qu := range q.byKind[kind] {
			sols, err := q.clients[0].Query(qu.text, qu.max)
			if err != nil {
				c.failf("%s over the wire: %v", qu.text, err)
				continue
			}
			n, err := q.localSize(qu.text, qu.max)
			if err != nil {
				c.failf("%s in process: %v", qu.text, err)
				continue
			}
			if len(sols) != n || n != qu.expect {
				c.failf("%s: %d solutions over the wire, %d in process, %d at set-up", qu.text, len(sols), n, qu.expect)
			}
		}
	}
	var acked uint64
	for _, n := range q.nAcked {
		acked += uint64(n)
	}
	if got, err := q.db.CountSteps(qmNoteClass); err != nil || got != acked {
		c.failf("CountSteps(%s) = %d (%v), want the %d acknowledged", qmNoteClass, got, err, acked)
	}
}

func (q *queryInstance) describe() map[string]any { return q.desc }

func (q *queryInstance) close() {
	for _, c := range q.clients {
		c.Close()
	}
	q.clients = nil
	if q.srv != nil {
		q.srv.stop()
		q.srv = nil
	}
	if q.db != nil {
		q.db.Close()
		q.db = nil
	}
}
