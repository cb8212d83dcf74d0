package core

import (
	"fmt"
	"math/rand"
	"slices"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/workflow"
)

// The workload is one stream of typed events. generate produces it by
// running the workflow engine over an in-memory state index and drawing the
// query mix beside it; apply replays it on a store, making the storage
// calls a live run of the engine against that store would. So every server
// version, pool size and experiment sees identical work, and the stream is
// generated once however many stores it drives. JSON is one encoding of the
// stream's mutations, for lfgen (trace.go).

// evKind names what an event asks of the store.
type evKind uint8

const (
	// The four mutations, the only kinds a JSON trace carries.
	evMaterial evKind = iota // CreateMaterial; id is the new material
	evSet                    // CreateMaterialSet over materials; id is the set
	evStep                   // RecordStep; id is the step
	evState                  // SetState(id, state)
	// evScan is the engine's MaterialsInState(state) read; materials is the
	// answer the engine was given.
	evScan
	evCommit   // commit the open transaction
	evInterval // a 0.5X interval ends; validTime is the engine's clock
	// The query mix, issued between transactions.
	evQueryScan // MaterialsInState(state) as a query; materials is the answer
	evProbe     // MostRecent(id, name), then State(id)
	evCount     // the three counting queries
	evAudit     // id's hit list, then its audit trail step by step
)

var evKindNames = [...]string{"material", "set", "step", "state", "scan", "commit", "interval", "query-scan", "probe", "count", "audit"}

func (k evKind) String() string { return evKindNames[k] }

// event is one element of the workload stream. Materials, sets and steps
// are named by trace-local ids, dense from 1 in creation order.
type event struct {
	kind      evKind
	id        uint64
	class     string
	name      string // a material's name; a probe's attribute
	state     string
	validTime int64
	materials []uint64
	set       uint64
	attrs     []labbase.AttrValue
}

// queryAttrs are the attributes the most-recent probes draw from.
var queryAttrs = []string{"sequence", "quality", "ok", "position", "coverage", "num_tclones", "hits"}

// generator is the producing side of the stream. It implements
// workflow.Tracker by emitting each call as an event instead of applying
// it, keeping just enough in-memory state (the state index) for the engine
// to run, and draws the query mix from what the engine touched. The ids it
// hands the engine are trace ids in the OID's index, materials in the
// material segment and sets and steps in the history segment.
type generator struct {
	p    Params
	lab  *Lab
	emit func(*event)
	ev   event // the event being emitted, reused
	next uint64

	// The state index. members holds each state's materials, unordered;
	// by dense trace id, stateOf[id] is 1 + the index of id's state in
	// members (0 for none) and slot[id] is id's position in its list.
	stateIdx map[string]int32
	members  [][]uint64
	stateOf  []int32
	slot     []int32

	rng    *rand.Rand // the query mix's draws, a stream apart from the engine's
	recent []uint64   // ring of recently touched materials
	ticks  int
}

// generate runs the LabFlow-1 workflow for halves 0.5X intervals, passing
// each event to emit as it happens, and returns the lab that ran it. The
// event is reused after emit returns, so emit copies what it keeps.
func generate(p Params, halves int, emit func(*event)) (*Lab, error) {
	lab, err := NewLab(p)
	if err != nil {
		return nil, err
	}
	g := &generator{
		p: p, lab: lab, emit: emit,
		stateIdx: make(map[string]int32),
		rng:      rand.New(rand.NewSource(p.Seed ^ 0x9E3779B9)),
	}
	eng, err := workflow.New(lab.Graph(), g, p.Seed)
	if err != nil {
		return nil, err
	}
	eng.SetOutOfOrder(p.OutOfOrderProb, p.OutOfOrderSkew)
	eng.AfterStep = g.afterStep
	eng.AfterTick = g.afterTick
	perInterval := (p.BaseClones + 1) / 2
	for i := 0; i < halves; i++ {
		if _, err := eng.InjectRoots(perInterval, "c"); err != nil {
			return nil, err
		}
		g.send(event{kind: evCommit})
		if _, err := eng.Run(100000); err != nil {
			return nil, err
		}
		g.intervalQueries()
		g.send(event{kind: evInterval, validTime: eng.Clock()})
	}
	return lab, nil
}

// workload generates the whole stream into memory, for applying to more
// than one store.
func workload(p Params, halves int) ([]event, *Lab, error) {
	var events []event
	lab, err := generate(p, halves, func(ev *event) { events = append(events, *ev) })
	return events, lab, err
}

// afterStep runs inside the tick's transaction: bookkeeping only. It notes
// clone/tclone parentage for the lab, and the materials for the query mix.
func (g *generator) afterStep(step workflow.ID, class string, mats []workflow.ID) error {
	if class == StepAssociateTclone {
		for _, t := range mats[1:] {
			g.lab.cloneOf[t] = mats[0]
		}
	}
	for _, m := range mats {
		if len(g.recent) < 4096 {
			g.recent = append(g.recent, m.Index())
		} else {
			g.recent[g.rng.Intn(len(g.recent))] = m.Index()
		}
	}
	return nil
}

// afterTick ends the tick's transaction, then issues the per-tick query
// mix, outside the transaction as a separate client would: most-recent
// probes proportional to the updates just performed, plus periodic counting
// queries. A tick that did no work ends the interval instead.
func (g *generator) afterTick(worked bool) error {
	g.ticks++
	g.send(event{kind: evCommit})
	if !worked || len(g.recent) == 0 {
		return nil
	}
	for i := 0; i < g.p.MostRecentPerStep; i++ {
		m := g.recent[g.rng.Intn(len(g.recent))]
		g.send(event{kind: evProbe, id: m, name: queryAttrs[g.rng.Intn(len(queryAttrs))]})
	}
	if g.p.CountTicks > 0 && g.ticks%g.p.CountTicks == 0 {
		g.send(event{kind: evCount})
	}
	return nil
}

// intervalQueries is the heavier end-of-interval mix: hit-list (set/list
// generation) retrievals and a history scan over a sample of finished
// clones.
func (g *generator) intervalQueries() {
	done := g.inState(StCloneDone)
	g.send(event{kind: evQueryScan, state: StCloneDone, materials: done})
	sample := len(done) / 4
	if sample < 1 {
		sample = len(done)
	}
	for i := 0; i < sample; i++ {
		g.send(event{kind: evAudit, id: done[g.rng.Intn(len(done))]})
	}
}

func (g *generator) send(ev event) {
	g.ev = ev
	g.emit(&g.ev)
}

// CreateMaterial implements workflow.Tracker.
func (g *generator) CreateMaterial(class, name, state string, validTime int64) (workflow.ID, error) {
	g.next++
	g.send(event{kind: evMaterial, id: g.next, class: class, name: name, state: state, validTime: validTime})
	g.setState(g.next, state)
	return storage.MakeOID(storage.SegMaterial, g.next), nil
}

// CreateMaterialSet implements workflow.Tracker.
func (g *generator) CreateMaterialSet(members []workflow.ID) (workflow.ID, error) {
	g.next++
	g.send(event{kind: evSet, id: g.next, materials: traceIDs(members)})
	return storage.MakeOID(storage.SegHistory, g.next), nil
}

// RecordStep implements workflow.Tracker.
func (g *generator) RecordStep(spec labbase.StepSpec) (workflow.ID, error) {
	g.next++
	ev := event{kind: evStep, id: g.next, class: spec.Class, validTime: spec.ValidTime, materials: traceIDs(spec.Materials), attrs: spec.Attrs}
	if !spec.Set.IsNil() {
		ev.set = spec.Set.Index()
	}
	g.send(ev)
	return storage.MakeOID(storage.SegHistory, g.next), nil
}

// SetState implements workflow.Tracker.
func (g *generator) SetState(m workflow.ID, state string) error {
	g.send(event{kind: evState, id: m.Index(), state: state})
	g.setState(m.Index(), state)
	return nil
}

// MaterialsInState implements workflow.Tracker.
func (g *generator) MaterialsInState(state string) ([]workflow.ID, error) {
	ids := g.inState(state)
	g.send(event{kind: evScan, state: state, materials: ids})
	out := make([]workflow.ID, len(ids))
	for i, id := range ids {
		out[i] = storage.MakeOID(storage.SegMaterial, id)
	}
	return out, nil
}

// inState lists the materials in state in id order, the order a store's
// MaterialsInState lists them.
func (g *generator) inState(state string) []uint64 {
	k, ok := g.stateIdx[state]
	if !ok {
		return nil
	}
	ids := slices.Clone(g.members[k])
	slices.Sort(ids)
	return ids
}

func (g *generator) setState(id uint64, state string) {
	for uint64(len(g.stateOf)) <= id {
		g.stateOf = append(g.stateOf, 0)
		g.slot = append(g.slot, 0)
	}
	if s := g.stateOf[id]; s != 0 {
		// Move the old state's last member into id's slot.
		m := g.members[s-1]
		last := m[len(m)-1]
		m[g.slot[id]] = last
		g.slot[last] = g.slot[id]
		g.members[s-1] = m[:len(m)-1]
		g.stateOf[id] = 0
	}
	if state == "" {
		return
	}
	k, ok := g.stateIdx[state]
	if !ok {
		k = int32(len(g.members))
		g.stateIdx[state] = k
		g.members = append(g.members, nil)
	}
	g.stateOf[id] = k + 1
	g.slot[id] = int32(len(g.members[k]))
	g.members[k] = append(g.members[k], id)
}

func traceIDs(oids []workflow.ID) []uint64 {
	out := make([]uint64, len(oids))
	for i, o := range oids {
		out[i] = o.Index()
	}
	return out
}

// applied is what apply reports: the mutation counts, the query count, one
// row per interval end, and the trace id → OID map it built.
type applied struct {
	ReplayStats
	Queries uint64
	Rows    []IntervalRow
	Clock   int64 // the engine's clock at the last interval end
	oids    map[uint64]storage.OID
}

// apply replays a workload stream on db, whose schema it defines first.
// next returns the stream's events one at a time and nil at its end. A
// transaction begins at the first mutation or scan after a commit and ends
// at the next evCommit or at the stream's end; the query mix runs between
// transactions and is skipped when queries is false. At each scan apply
// checks the store's answer against the stream's, so a store or a stream
// that has diverged fails at the first read that sees it.
func apply(db labbase.Store, next func() (*event, error), queries bool) (a *applied, err error) {
	a = &applied{oids: make(map[uint64]storage.OID)}
	if err := db.Begin(); err != nil {
		return a, err
	}
	if err := DefineSchema(db); err != nil {
		return a, err
	}
	if err := db.Commit(); err != nil {
		return a, err
	}
	_, prev := db.StoreStats()
	var prevSteps, prevQueries uint64
	inTxn := false
	defer func() { // the open transaction commits however apply returns
		if inTxn {
			if cerr := db.Commit(); err == nil {
				err = cerr
			}
		}
	}()
	for i := 0; ; i++ {
		var ev *event
		if ev, err = next(); ev == nil || err != nil {
			return a, err
		}
		if ev.kind >= evQueryScan && !queries {
			continue
		}
		if ev.kind <= evScan && !inTxn {
			if err := db.Begin(); err != nil {
				return a, err
			}
			inTxn = true
		}
		switch ev.kind {
		case evCommit:
			if inTxn {
				inTxn = false
				err = db.Commit()
			}
		case evInterval:
			_, stats := db.StoreStats()
			ds := stats.Sub(prev)
			a.Rows = append(a.Rows, IntervalRow{Label: fmt.Sprintf("%.1fX", float64(len(a.Rows)+1)*0.5),
				MajFlt: ds.Faults, PageWrites: ds.PageWrites, SizeBytes: ds.SizeBytes,
				Steps: a.Steps - prevSteps, Queries: a.Queries - prevQueries})
			prev, prevSteps, prevQueries = stats, a.Steps, a.Queries
			a.Clock = ev.validTime
		default:
			if err = a.known(ev); err == nil {
				err = a.issue(db, ev)
			}
		}
		if err != nil {
			return a, fmt.Errorf("core: event %d (%s %d): %w", i, ev.kind, ev.id, err)
		}
	}
}

// applySlice is apply over an in-memory stream.
func applySlice(db labbase.Store, events []event, queries bool) (*applied, error) {
	return apply(db, func() (ev *event, _ error) {
		if len(events) > 0 {
			ev, events = &events[0], events[1:]
		}
		return ev, nil
	}, queries)
}

// known refuses an event that reads an id the stream has not created.
func (a *applied) known(ev *event) error {
	ids := ev.materials
	if ev.kind == evState || ev.kind == evProbe || ev.kind == evAudit {
		ids = []uint64{ev.id}
	}
	if ev.set != 0 {
		ids = append(ids[:len(ids):len(ids)], ev.set)
	}
	for _, id := range ids {
		if _, ok := a.oids[id]; !ok {
			return fmt.Errorf("unknown id %d", id)
		}
	}
	return nil
}

// issue makes one mutation, scan or query's storage calls.
func (a *applied) issue(db labbase.Store, ev *event) (err error) {
	m := a.oids[ev.id]
	switch ev.kind {
	case evMaterial:
		a.oids[ev.id], err = db.CreateMaterial(ev.class, ev.name, ev.state, ev.validTime)
		a.Materials++
	case evSet:
		a.oids[ev.id], err = db.CreateMaterialSet(a.resolve(ev.materials))
		a.Sets++
	case evStep:
		spec := labbase.StepSpec{Class: ev.class, ValidTime: ev.validTime, Materials: a.resolve(ev.materials), Attrs: ev.attrs}
		if ev.set != 0 {
			spec.Set = a.oids[ev.set]
		}
		a.oids[ev.id], err = db.RecordStep(spec)
		a.Steps++
	case evState:
		err = db.SetState(m, ev.state)
		a.States++
	case evScan, evQueryScan:
		var got []storage.OID
		if got, err = db.MaterialsInState(ev.state); err == nil {
			err = a.checkScan(ev, got)
		}
		if ev.kind == evQueryScan {
			a.Queries++
		}
		return err
	case evProbe:
		// Every most-recent probe is paired with a state lookup, the
		// workflow dispatcher's bread and butter.
		if _, _, _, err = db.MostRecent(m, ev.name); err == nil {
			_, err = db.State(m)
		}
		a.Queries += 2
		return err
	case evCount:
		if _, err = db.CountMaterials("clone"); err == nil {
			if _, err = db.CountSteps(StepDetermineSeq); err == nil {
				_, err = db.CountInState(StTcloneGelled)
			}
		}
		a.Queries += 3
		return err
	case evAudit:
		// Set/list generation (the stored BLAST hit list), then the audit
		// trail. The trail counts one query per step record fetched; the
		// History call that lists them is the same scan, not another query.
		if err := checkHits(db, m); err != nil {
			return err
		}
		n, err := readTrail(db, m)
		a.Queries += 1 + uint64(n)
		return err
	default:
		return fmt.Errorf("unknown event kind")
	}
	a.Events++
	return err
}

// checkScan compares a store's MaterialsInState answer with the stream's.
func (a *applied) checkScan(ev *event, got []storage.OID) error {
	if len(got) != len(ev.materials) {
		return fmt.Errorf("store lists %d materials in %s, stream %d", len(got), ev.state, len(ev.materials))
	}
	for i, id := range ev.materials {
		if got[i] != a.oids[id] {
			return fmt.Errorf("store lists %v at %d of %s, stream id %d", got[i], i, ev.state, id)
		}
	}
	return nil
}

func (a *applied) resolve(ids []uint64) []storage.OID {
	out := make([]storage.OID, len(ids))
	for i, id := range ids {
		out[i] = a.oids[id]
	}
	return out
}

// checkHits fetches m's stored BLAST hit list, which must be a list.
func checkHits(db labbase.Reader, m storage.OID) error {
	v, _, found, err := db.MostRecent(m, "hits")
	if err == nil && found && v.Kind != labbase.KindList {
		err = fmt.Errorf("hits attribute is %v, want list", v.Kind)
	}
	return err
}

// readTrail fetches every step record in m's history, returning how many.
func readTrail(db labbase.Reader, m storage.OID) (int, error) {
	hist, err := db.History(m)
	if err != nil {
		return 0, err
	}
	for _, h := range hist {
		if _, err := db.GetStep(h.Step); err != nil {
			return 0, err
		}
	}
	return len(hist), nil
}
