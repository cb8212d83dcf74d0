// Package lbq bridges the deductive query language (package datalog) to the
// LabBase database (package labbase), giving the benchmark the paper's
// Section 6-8 query interface: database facts appear as external predicates
// that resolution can call, and workflow-tracking updates are available as
// goals.
//
// Database predicates (OIDs appear as integers):
//
//	material(M, Class)         enumerate or check materials and classes
//	material_name(M, Name)     a material's name
//	state(M, S)                workflow state; enumerable by state
//	most_recent(M, Attr, V)    the benchmark's signature query
//	history(M, Steps)          the material's audit trail (step OID list)
//	steps_involving(M, Steps)  every step touching M, via the reverse index
//	step(S, Class, ValidTime)  a step instance's class and valid time
//	step_version(S, V)         the step-class version an instance is bound to
//	step_attr(S, Attr, V)      a step's recorded results
//	set_member(Set, M)         material_set membership
//	count_materials(Class, N)  instance counts (is-a inclusive)
//	count_steps(Class, N)
//	count_in_state(State, N)
//
// Binding modes (+ bound, - unbound, ? either). An index-driven mode answers
// from one index probe or one record; a streamed mode walks an index and
// yields from inside the walk, so the walk stops as soon as the query has
// the answers it asked for; an enumerated mode reads a whole list, or
// decodes every record, before yielding. A bound argument of the wrong
// shape — a non-OID where a material goes, a non-atom where a class or
// state goes — names nothing and fails without reading.
//
//	material(+M, ?C)          index-driven: M's record
//	material(-M, +C)          streamed: C's own extent, OIDs only; exact
//	                          class, so a subclass's instances are not C's
//	material(-M, -C)          enumerated: every material, class by class
//	material_name(?M, +Name)  index-driven: the name index
//	material_name(+M, -Name)  index-driven: M's record
//	state(+M, ?S)             index-driven: M's record
//	state(-M, +S)             streamed: S's state index, in OID order
//	state(-M, -S)             streamed: each state's index in catalog order
//	most_recent(+M, +A, ?V)   index-driven: the most-recent index
//	count_*(+Name, ?N)        index-driven: the counters
//	history, steps_involving, step_attr, set_member
//	                          enumerated: one record's list
//	schema predicates         enumerated: the catalog
//
// Streamed modes ask the reader for labbase.IndexScanner and fall back to
// the equivalent Reader listing when it is absent; either way class
// members come in extent order and state members in OID order, shard-major
// on a sharded store.
//
// Provenance predicates (native lineage closure; see lineage.go):
//
//	step_materials(S, Ms)      a step's involved materials
//	derived_from(M, A)         A is a strict ancestor of M
//	downstream_of(D, A)        D is a strict descendant of A
//	impacted_by(S, M)          S involves M or a material downstream of M
//
// Update predicates (each runs in its own transaction unless one is open):
//
//	create_material(Class, Name, State, ValidTime, M)
//	record_step(Class, ValidTime, Materials, [Attr = Value, ...], S)
//	assert_state(M, S) / retract_state(M, S)  the paper's state updates
//
// Queries run in one of two modes. Query and Prove resolve against the live
// store and may update it (and, via assert/retract, the engine's clause
// database) — callers serialize those externally. QueryOn resolves every
// database predicate against a caller-supplied snapshot and rejects all
// update predicates; any number of QueryOn calls may run concurrently over
// one bridge, each seeing exactly its snapshot's state.
package lbq

import (
	"errors"
	"fmt"

	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// Bridge couples one engine to one database (a plain *labbase.DB or a
// sharded store — anything implementing labbase.Store).
type Bridge struct {
	db labbase.Store
	e  *datalog.Engine
}

// New builds an engine wired to db.
func New(db labbase.Store) *Bridge {
	b := &Bridge{db: db, e: datalog.New()}
	b.register()
	return b
}

// Engine returns the underlying engine (for Consult of site rules).
func (b *Bridge) Engine() *datalog.Engine { return b.e }

// Query runs a goal against the live database (max <= 0 returns all
// solutions). Update predicates are allowed; callers serialize Query calls
// against each other and against writers.
func (b *Bridge) Query(q string, max int) ([]datalog.Solution, error) {
	return b.e.Query(q, max)
}

// QueryOn runs a goal with every database predicate reading from snap and
// every update predicate (including the engine's assert/retract) rejected.
// Concurrent QueryOn calls over one bridge are safe: the engine's shared
// clause database is only read, and all per-query state lives in the query
// context.
func (b *Bridge) QueryOn(snap labbase.Reader, q string, max int) ([]datalog.Solution, error) {
	return b.e.QueryCtx(datalog.NewQctx(snap, true), q, max)
}

// Prove reports whether the goal has a solution (live store, like Query).
func (b *Bridge) Prove(q string) (bool, error) { return b.e.Prove(q) }

// storeFor resolves the store a query's database predicates read from: the
// snapshot handle the query was started on (QueryOn), or the live store.
func (b *Bridge) storeFor(qc *datalog.Qctx) labbase.Reader {
	if qc != nil {
		if r, ok := qc.Handle.(labbase.Reader); ok && r != nil {
			return r
		}
	}
	return b.db
}

// stepMemoKey indexes the per-query decoded-step cache in Qctx.Memo.
const stepMemoKey = "lbq.steps"

// getStep reads a step through the query-local memo: the join shape of the
// benchmark's deductive queries visits one step through step/3,
// step_version/2 and step_attr/3 in turn, and the memo decodes it once per
// query instead of once per goal. Steps are write-once records, so a
// decoded step can never go stale — the memo is still dropped with the
// query, keyed off its snapshot handle's context.
func getStep(qc *datalog.Qctx, db labbase.Reader, oid storage.OID) (*labbase.Step, error) {
	if qc == nil || qc.Memo == nil {
		return db.GetStep(oid)
	}
	memo, _ := qc.Memo[stepMemoKey].(map[storage.OID]*labbase.Step)
	if memo == nil {
		memo = make(map[storage.OID]*labbase.Step)
		qc.Memo[stepMemoKey] = memo
	}
	if s, ok := memo[oid]; ok {
		return s, nil
	}
	s, err := db.GetStep(oid)
	if err != nil {
		return nil, err
	}
	memo[oid] = s
	return s, nil
}

// OIDTerm converts an OID for use in queries.
func OIDTerm(oid storage.OID) datalog.Term { return datalog.Int(int64(oid)) }

// TermOID converts back, reporting whether the term is an OID-shaped int.
func TermOID(t datalog.Term) (storage.OID, bool) {
	i, ok := t.(datalog.Int)
	if !ok || i < 0 {
		return storage.NilOID, false
	}
	return storage.OID(uint64(i)), true
}

// ValueTerm converts a LabBase value to a term.
func ValueTerm(v labbase.Value) datalog.Term {
	switch v.Kind {
	case labbase.KindInt:
		return datalog.Int(v.Int)
	case labbase.KindFloat:
		return datalog.Float(v.Float)
	case labbase.KindString:
		return datalog.Str(v.Str)
	case labbase.KindBool:
		if v.Int != 0 {
			return datalog.Atom("true")
		}
		return datalog.Atom("false")
	case labbase.KindOID:
		return OIDTerm(v.OID)
	case labbase.KindList:
		elems := make([]datalog.Term, len(v.List))
		for i, e := range v.List {
			elems[i] = ValueTerm(e)
		}
		return datalog.MkList(elems...)
	default:
		return datalog.Atom("nil")
	}
}

// TermValue converts a ground term to a LabBase value.
func TermValue(t datalog.Term) (labbase.Value, error) {
	switch x := datalog.Resolve(t).(type) {
	case datalog.Int:
		return labbase.Int64(int64(x)), nil
	case datalog.Float:
		return labbase.Float64(float64(x)), nil
	case datalog.Str:
		return labbase.String(string(x)), nil
	case datalog.Atom:
		switch x {
		case "true":
			return labbase.Bool(true), nil
		case "false":
			return labbase.Bool(false), nil
		case "nil":
			return labbase.Nil(), nil
		}
		return labbase.String(string(x)), nil
	case *datalog.Compound:
		elems, ok := datalog.ListSlice(x)
		if !ok {
			return labbase.Nil(), fmt.Errorf("lbq: cannot store term %s", x)
		}
		vs := make([]labbase.Value, len(elems))
		for i, e := range elems {
			var err error
			vs[i], err = TermValue(e)
			if err != nil {
				return labbase.Nil(), err
			}
		}
		return labbase.ListOf(vs...), nil
	default:
		return labbase.Nil(), fmt.Errorf("lbq: cannot store term %s", t)
	}
}

// yield unifies arg/value pairs and calls the continuation, undoing on
// failure; it is the standard extern body.
func yield(bs *datalog.Bindings, k datalog.Cont, pairs ...[2]datalog.Term) (bool, error) {
	mark := bs.Mark()
	for _, p := range pairs {
		if !datalog.Unify(p[0], p[1], bs) {
			bs.Undo(mark)
			return false, nil
		}
	}
	done, err := k()
	if err != nil || done {
		return done, err
	}
	bs.Undo(mark)
	return false, nil
}

// withTxn runs fn inside the current transaction, or a fresh one.
func (b *Bridge) withTxn(fn func() error) error {
	if b.db.InTxn() {
		return fn()
	}
	if err := b.db.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	return b.db.Commit()
}

// ErrReadOnlyUpdate is the typed sentinel wrapped whenever an update
// predicate is reached in a read-only (QueryOn) resolution — whether called
// directly or re-entered through findall/3, setof/3 or \+. Match it with
// errors.Is.
var ErrReadOnlyUpdate = errors.New("lbq: update predicate in a read-only query")

// readOnlyErr is the rejection every update predicate returns in a QueryOn
// resolution.
func readOnlyErr(pred string) error {
	return fmt.Errorf("%w: %s is an update and is not allowed in a read-only query", ErrReadOnlyUpdate, pred)
}

func (b *Bridge) register() {
	e := b.e

	e.RegisterExternCtx("material", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		if t := datalog.Resolve(args[0]); !unbound(t) {
			oid, ok := TermOID(t)
			if !ok {
				return false, nil // a bound non-OID names no material
			}
			m, err := db.GetMaterial(oid)
			if err != nil {
				return false, nil // not a material: no solutions
			}
			return yield(bs, k, [2]datalog.Term{args[1], datalog.Atom(m.Class)})
		}
		switch c := datalog.Resolve(args[1]).(type) {
		case datalog.Atom:
			// The class's own extent, walked from inside the scan.
			done, err := walk(func(fn func(storage.OID) error) error {
				return labbase.WalkClass(db, string(c), fn)
			}, func(oid storage.OID) (bool, error) {
				return yield(bs, k, [2]datalog.Term{args[0], OIDTerm(oid)})
			})
			if errors.Is(err, labbase.ErrUnknownClass) {
				return false, nil
			}
			return done, err
		case *datalog.Var:
			return walk(db.ScanAllMaterials, func(m *labbase.Material) (bool, error) {
				return yield(bs, k,
					[2]datalog.Term{args[0], OIDTerm(m.OID)},
					[2]datalog.Term{args[1], datalog.Atom(m.Class)})
			})
		}
		return false, nil // no class is named by a non-atom
	})

	e.RegisterExternCtx("material_name", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		// Keyed mode: a bound name resolves directly through the name index.
		switch n := datalog.Resolve(args[1]).(type) {
		case datalog.Str:
			if oid, ok := db.LookupMaterial(string(n)); ok {
				return yield(bs, k, [2]datalog.Term{args[0], OIDTerm(oid)})
			}
			return false, nil
		case datalog.Atom:
			if oid, ok := db.LookupMaterial(string(n)); ok {
				return yield(bs, k, [2]datalog.Term{args[0], OIDTerm(oid)})
			}
			return false, nil
		}
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: material_name/2 needs a bound material or name")
		}
		m, err := db.GetMaterial(oid)
		if err != nil {
			return false, nil
		}
		return yield(bs, k, [2]datalog.Term{args[1], datalog.Str(m.Name)})
	})

	e.RegisterExternCtx("state", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		if t := datalog.Resolve(args[0]); !unbound(t) {
			oid, ok := TermOID(t)
			if !ok {
				return false, nil // a bound non-OID names no material
			}
			st, err := db.State(oid)
			if err != nil || st == "" {
				return false, nil
			}
			return yield(bs, k, [2]datalog.Term{args[1], datalog.Atom(st)})
		}
		// Stream each state's index (the bound one, or every state),
		// yielding from inside the walk.
		var states []string
		switch s := datalog.Resolve(args[1]).(type) {
		case datalog.Atom:
			states = []string{string(s)}
		case *datalog.Var:
			states = db.States()
		default:
			return false, nil // no state is named by a non-atom
		}
		for _, st := range states {
			stTerm := datalog.Atom(st)
			done, err := walk(func(fn func(storage.OID) error) error {
				return labbase.WalkState(db, st, fn)
			}, func(oid storage.OID) (bool, error) {
				return yield(bs, k,
					[2]datalog.Term{args[0], OIDTerm(oid)},
					[2]datalog.Term{args[1], stTerm})
			})
			if errors.Is(err, labbase.ErrUnknownState) {
				continue
			}
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})

	e.RegisterExternCtx("most_recent", 3, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: most_recent/3 needs a bound material")
		}
		attr, ok := datalog.Resolve(args[1]).(datalog.Atom)
		if !ok {
			return false, fmt.Errorf("lbq: most_recent/3 needs a bound attribute atom")
		}
		v, _, found, err := db.MostRecent(oid, string(attr))
		if err != nil || !found {
			return false, nil
		}
		return yield(bs, k, [2]datalog.Term{args[2], ValueTerm(v)})
	})

	// Schema queries (paper Section 8.1): the catalog through the language.
	e.RegisterExternCtx("material_class", 1, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		for _, name := range b.storeFor(qc).MaterialClasses() {
			done, err := yield(bs, k, [2]datalog.Term{args[0], datalog.Atom(name)})
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})
	e.RegisterExternCtx("step_class", 1, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		for _, name := range b.storeFor(qc).StepClasses() {
			done, err := yield(bs, k, [2]datalog.Term{args[0], datalog.Atom(name)})
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})
	e.RegisterExternCtx("workflow_state", 1, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		for _, name := range b.storeFor(qc).States() {
			done, err := yield(bs, k, [2]datalog.Term{args[0], datalog.Atom(name)})
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})
	// step_class_version(Class, Version, Attrs): enumerate a step class's
	// versions with their attribute sets — how re-engineering is audited.
	e.RegisterExternCtx("step_class_version", 3, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		classes := db.StepClasses()
		if c, ok := datalog.Resolve(args[0]).(datalog.Atom); ok {
			classes = []string{string(c)}
		}
		for _, class := range classes {
			vers, err := db.StepClassVersions(class)
			if err != nil {
				continue
			}
			for i, attrs := range vers {
				attrTerms := make([]datalog.Term, len(attrs))
				for j, a := range attrs {
					attrTerms[j] = datalog.Atom(a)
				}
				done, err := yield(bs, k,
					[2]datalog.Term{args[0], datalog.Atom(class)},
					[2]datalog.Term{args[1], datalog.Int(int64(i + 1))},
					[2]datalog.Term{args[2], datalog.MkList(attrTerms...)})
				if err != nil || done {
					return done, err
				}
			}
		}
		return false, nil
	})

	e.RegisterExternCtx("most_recent_at", 4, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: most_recent_at/4 needs a bound material")
		}
		attr, ok := datalog.Resolve(args[1]).(datalog.Atom)
		if !ok {
			return false, fmt.Errorf("lbq: most_recent_at/4 needs a bound attribute atom")
		}
		t, ok := datalog.Resolve(args[2]).(datalog.Int)
		if !ok {
			return false, fmt.Errorf("lbq: most_recent_at/4 needs an integer valid time")
		}
		v, _, found, err := db.MostRecentAsOf(oid, string(attr), int64(t))
		if err != nil || !found {
			return false, nil
		}
		return yield(bs, k, [2]datalog.Term{args[3], ValueTerm(v)})
	})

	e.RegisterExternCtx("timeline", 3, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: timeline/3 needs a bound material")
		}
		attr, ok := datalog.Resolve(args[1]).(datalog.Atom)
		if !ok {
			return false, fmt.Errorf("lbq: timeline/3 needs a bound attribute atom")
		}
		entries, err := db.AttrTimeline(oid, string(attr))
		if err != nil {
			return false, nil
		}
		items := make([]datalog.Term, len(entries))
		for i, te := range entries {
			items[i] = datalog.MkList(datalog.Int(te.ValidTime), ValueTerm(te.Value))
		}
		return yield(bs, k, [2]datalog.Term{args[2], datalog.MkList(items...)})
	})

	e.RegisterExternCtx("history", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: history/2 needs a bound material")
		}
		hist, err := db.History(oid)
		if err != nil {
			return false, nil
		}
		steps := make([]datalog.Term, len(hist))
		for i, h := range hist {
			steps[i] = OIDTerm(h.Step)
		}
		return yield(bs, k, [2]datalog.Term{args[1], datalog.MkList(steps...)})
	})

	// steps_involving(M, Steps): every step whose material list (or set
	// expansion) includes M, oldest first — history/2's step projection,
	// answered from the reverse involves index instead of the history chain.
	e.RegisterExternCtx("steps_involving", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: steps_involving/2 needs a bound material")
		}
		steps, err := db.StepsInvolving(oid)
		if err != nil {
			return false, nil
		}
		terms := make([]datalog.Term, len(steps))
		for i, s := range steps {
			terms[i] = OIDTerm(s)
		}
		return yield(bs, k, [2]datalog.Term{args[1], datalog.MkList(terms...)})
	})

	e.RegisterExternCtx("step", 3, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: step/3 needs a bound step")
		}
		s, err := getStep(qc, db, oid)
		if err != nil {
			return false, nil
		}
		return yield(bs, k,
			[2]datalog.Term{args[1], datalog.Atom(s.Class)},
			[2]datalog.Term{args[2], datalog.Int(s.ValidTime)})
	})

	e.RegisterExternCtx("step_version", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: step_version/2 needs a bound step")
		}
		s, err := getStep(qc, db, oid)
		if err != nil {
			return false, nil
		}
		return yield(bs, k, [2]datalog.Term{args[1], datalog.Int(int64(s.Version))})
	})

	e.RegisterExternCtx("step_attr", 3, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: step_attr/3 needs a bound step")
		}
		s, err := getStep(qc, db, oid)
		if err != nil {
			return false, nil
		}
		for _, av := range s.Attrs {
			done, err := yield(bs, k,
				[2]datalog.Term{args[1], datalog.Atom(av.Name)},
				[2]datalog.Term{args[2], ValueTerm(av.Value)})
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})

	e.RegisterExternCtx("set_member", 2, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		db := b.storeFor(qc)
		oid, ok := TermOID(datalog.Resolve(args[0]))
		if !ok {
			return false, fmt.Errorf("lbq: set_member/2 needs a bound set")
		}
		members, err := db.SetMembers(oid)
		if err != nil {
			return false, nil
		}
		for _, m := range members {
			done, err := yield(bs, k, [2]datalog.Term{args[1], OIDTerm(m)})
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	})

	counter := func(name string, count func(labbase.Reader, string) (uint64, error)) datalog.CtxExtern {
		return func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
			c, ok := datalog.Resolve(args[0]).(datalog.Atom)
			if !ok {
				return false, fmt.Errorf("lbq: %s/2 needs a bound name", name)
			}
			n, err := count(b.storeFor(qc), string(c))
			if err != nil {
				return false, nil
			}
			return yield(bs, k, [2]datalog.Term{args[1], datalog.Int(int64(n))})
		}
	}
	e.RegisterExternCtx("count_materials", 2, counter("count_materials",
		func(r labbase.Reader, c string) (uint64, error) { return r.CountMaterials(c) }))
	e.RegisterExternCtx("count_steps", 2, counter("count_steps",
		func(r labbase.Reader, c string) (uint64, error) { return r.CountSteps(c) }))
	e.RegisterExternCtx("count_in_state", 2, counter("count_in_state",
		func(r labbase.Reader, c string) (uint64, error) { return r.CountInState(c) }))

	e.RegisterExternCtx("create_material", 5, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		if qc.ReadOnly {
			return false, readOnlyErr("create_material/5")
		}
		class, ok1 := datalog.Resolve(args[0]).(datalog.Atom)
		var name string
		switch n := datalog.Resolve(args[1]).(type) {
		case datalog.Str:
			name = string(n)
		case datalog.Atom:
			name = string(n)
		default:
			return false, fmt.Errorf("lbq: create_material/5 needs a name")
		}
		state, ok2 := datalog.Resolve(args[2]).(datalog.Atom)
		vt, ok3 := datalog.Resolve(args[3]).(datalog.Int)
		if !ok1 || !ok2 || !ok3 {
			return false, fmt.Errorf("lbq: create_material(Class, Name, State, ValidTime, M) needs ground inputs")
		}
		var oid storage.OID
		err := b.withTxn(func() error {
			var err error
			oid, err = b.db.CreateMaterial(string(class), name, string(state), int64(vt))
			return err
		})
		if err != nil {
			return false, err
		}
		return yield(bs, k, [2]datalog.Term{args[4], OIDTerm(oid)})
	})

	e.RegisterExternCtx("record_step", 5, func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		if qc.ReadOnly {
			return false, readOnlyErr("record_step/5")
		}
		class, ok := datalog.Resolve(args[0]).(datalog.Atom)
		if !ok {
			return false, fmt.Errorf("lbq: record_step/5 needs a class atom")
		}
		vt, ok := datalog.Resolve(args[1]).(datalog.Int)
		if !ok {
			return false, fmt.Errorf("lbq: record_step/5 needs an integer valid time")
		}
		matTerms, ok := datalog.ListSlice(args[2])
		if !ok {
			return false, fmt.Errorf("lbq: record_step/5 needs a material list")
		}
		mats := make([]storage.OID, len(matTerms))
		for i, mt := range matTerms {
			oid, ok := TermOID(datalog.Resolve(mt))
			if !ok {
				return false, fmt.Errorf("lbq: record_step/5: bad material %s", mt)
			}
			mats[i] = oid
		}
		attrTerms, ok := datalog.ListSlice(args[3])
		if !ok {
			return false, fmt.Errorf("lbq: record_step/5 needs an attribute list")
		}
		attrs := make([]labbase.AttrValue, 0, len(attrTerms))
		for _, at := range attrTerms {
			c, ok := datalog.Resolve(at).(*datalog.Compound)
			if !ok || c.Functor != "=" || len(c.Args) != 2 {
				return false, fmt.Errorf("lbq: record_step/5: attribute %s is not Name = Value", at)
			}
			name, ok := datalog.Resolve(c.Args[0]).(datalog.Atom)
			if !ok {
				return false, fmt.Errorf("lbq: record_step/5: attribute name %s is not an atom", c.Args[0])
			}
			v, err := TermValue(c.Args[1])
			if err != nil {
				return false, err
			}
			attrs = append(attrs, labbase.AttrValue{Name: string(name), Value: v})
		}
		var step storage.OID
		err := b.withTxn(func() error {
			var err error
			step, err = b.db.RecordStep(labbase.StepSpec{
				Class: string(class), ValidTime: int64(vt), Materials: mats, Attrs: attrs,
			})
			return err
		})
		if err != nil {
			return false, err
		}
		return yield(bs, k, [2]datalog.Term{args[4], OIDTerm(step)})
	})

	setStateExt := func(name string, requireCurrent bool) datalog.CtxExtern {
		return func(qc *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
			if qc.ReadOnly {
				return false, readOnlyErr(name + "/2")
			}
			oid, ok := TermOID(datalog.Resolve(args[0]))
			if !ok {
				return false, fmt.Errorf("lbq: state update needs a bound material")
			}
			st, ok := datalog.Resolve(args[1]).(datalog.Atom)
			if !ok {
				return false, fmt.Errorf("lbq: state update needs a state atom")
			}
			if requireCurrent {
				// retract_state(M, S): true only if M is currently in S.
				cur, err := b.db.State(oid)
				if err != nil || cur != string(st) {
					return false, nil
				}
				if err := b.withTxn(func() error { return b.db.SetState(oid, "") }); err != nil {
					return false, err
				}
				return k()
			}
			if err := b.withTxn(func() error { return b.db.SetState(oid, string(st)) }); err != nil {
				return false, err
			}
			return k()
		}
	}
	e.RegisterExternCtx("assert_state", 2, setStateExt("assert_state", false))
	e.RegisterExternCtx("retract_state", 2, setStateExt("retract_state", true))

	b.registerLineage()
}

// unbound reports whether a resolved argument is a free variable — the
// enumerating mode. Any other term is bound, and a bound term of the wrong
// shape simply names nothing.
func unbound(t datalog.Term) bool {
	_, ok := t.(*datalog.Var)
	return ok
}

// errStop aborts a scan once the continuation asks to stop.
var errStop = errors.New("lbq: stop scan")

// walk runs scan with visit — an extern's yield — called from inside it,
// and stops the scan the moment visit is done or fails. It reports visit's
// outcome when visit stopped the scan, and the scan's own error otherwise,
// so an extern can tell "the store has no such index" from a failure of the
// rest of the query.
func walk[T any](scan func(func(T) error) error, visit func(T) (bool, error)) (bool, error) {
	var done bool
	var verr error
	err := scan(func(x T) error {
		if done, verr = visit(x); done || verr != nil {
			return errStop
		}
		return nil
	})
	if done || verr != nil {
		return done, verr
	}
	return false, err
}
