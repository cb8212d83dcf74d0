package datalog

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Answer tabling (SLG-lite). A predicate declared with Engine.Table (or the
// ":- table name/arity." directive) is evaluated against a per-query answer
// table instead of by plain SLD resolution: the first call with a given call
// pattern runs the predicate's clauses once as a *producer*, recording each
// distinct answer; every later call with the same pattern *replays* the
// recorded answers. Recursive calls reaching a table that is still being
// produced replay the answers known so far and fail, and the outermost
// member of the recursive component (the SCC leader, found with Tarjan-style
// bookkeeping) re-runs the component's producers until a full round adds no
// new answer. Each distinct subgoal is therefore derived once per query —
// a diamond-shaped derivation DAG costs O(edges), not O(paths) — and
// left-recursive rules terminate.
//
// Termination: tables are keyed by call-pattern variant and answers are
// deduplicated by variant, so the fixpoint loop only continues while a round
// inserts an answer that was never seen before. Programs whose tabled
// predicates have finitely many derivable answers (any Datalog program over
// a finite database) always terminate; building unboundedly growing terms
// inside a tabled predicate diverges exactly as it does under SLD.
//
// Restrictions, enforced as hard errors: cut inside a tabled predicate's
// clauses (a producer enumerates all clauses — committing to one would
// change the recorded answer set), and negation over a table that is still
// incomplete (the program is unstratified; answers would depend on
// evaluation order).

// ErrTabledCut reports a cut in the body of a tabled predicate's clause.
var ErrTabledCut = errors.New("datalog: cut inside a tabled predicate")

// ErrTabledNegation reports negation-as-failure applied to a tabled goal
// whose table is still being produced (an unstratified program).
var ErrTabledNegation = errors.New("datalog: negation over incomplete tabled predicate")

// Table declares name/arity as tabled. It must be called before the query
// workload (like Consult and RegisterExternCtx); builtins and externs cannot be
// tabled, and any clause of the predicate — existing or added later — whose
// body contains a (transparent) cut is rejected.
func (e *Engine) Table(name string, arity int) error {
	if arity < 0 {
		return fmt.Errorf("datalog: cannot table %s/%d: negative arity", name, arity)
	}
	switch name {
	case ",", ";", "->", "\\+", "!", "<-", ":-", "true", "fail", "false":
		return fmt.Errorf("datalog: cannot table control construct %s/%d", name, arity)
	}
	key := fmt.Sprintf("%s/%d", name, arity)
	if _, isB := e.builtins[key]; isB {
		return fmt.Errorf("datalog: cannot table builtin %s", key)
	}
	if _, isX := e.externs[key]; isX {
		return fmt.Errorf("datalog: cannot table external predicate %s", key)
	}
	if p, ok := e.clauses[key]; ok {
		for _, ic := range p.all {
			if bodyHasCut(ic.c.Body) {
				return fmt.Errorf("%w: %s", ErrTabledCut, key)
			}
		}
	}
	if e.tabled == nil {
		e.tabled = make(map[string]bool)
	}
	e.tabled[key] = true
	return nil
}

// Tabled reports whether name/arity has been declared tabled.
func (e *Engine) Tabled(name string, arity int) bool {
	return e.tabled[fmt.Sprintf("%s/%d", name, arity)]
}

// bodyHasCut walks goals the way tagCuts does: cuts are transparent through
// the control structures, opaque inside other goals (findall, call, ...).
func bodyHasCut(body []Term) bool {
	for _, g := range body {
		if goalHasCut(g) {
			return true
		}
	}
	return false
}

func goalHasCut(t Term) bool {
	switch t := t.(type) {
	case Atom:
		return t == "!"
	case *Compound:
		switch t.Functor {
		case ",", ";", "->":
			if len(t.Args) == 2 {
				return goalHasCut(t.Args[0]) || goalHasCut(t.Args[1])
			}
		}
	}
	return false
}

// tableEntry is one call pattern's answer table within a query.
type tableEntry struct {
	predKey       string // functor/arity, for producing against the clause db
	goal          Term   // generalized copy of the call (fresh unbound variables)
	answers       []Term // independent answer snapshots, in insertion order
	seen          map[string]bool
	complete      bool
	dfn           int  // discovery index (Tarjan)
	minLink       int  // lowest dfn reachable through this entry's evaluation
	sawIncomplete bool // last producer pass consumed an incomplete table
	negAtCreate   int  // negation nesting depth when the entry was created
}

// tabState is one query's tabling state, hung off the Qctx on first use.
type tabState struct {
	entries  map[string]*tableEntry // keyed by call-pattern variant
	stack    []*tableEntry          // incomplete entries, discovery order
	runStack []*tableEntry          // entries whose producer is on the Go stack
	nextDfn  int
	inserts  int64 // monotone answer-insertion counter (fixpoint detection)
}

func (qc *Qctx) tabs() *tabState {
	if qc.tab == nil {
		qc.tab = &tabState{entries: make(map[string]*tableEntry)}
	}
	return qc.tab
}

// tabledCall evaluates a goal of a tabled predicate through the answer table.
func (e *Engine) tabledCall(g Term, key string, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	ts := qc.tabs()
	ck := variantKey(g)
	if ent, ok := ts.entries[ck]; ok {
		if ent.complete {
			return e.replay(ent, g, bs, k)
		}
		// A consumer of a table still being produced: a recursive call (or a
		// cross call inside the same strongly connected component).
		if len(ts.runStack) == 0 {
			return false, fmt.Errorf("datalog: tabled call %s re-entered after an aborted query (query contexts are single-use)", key)
		}
		if qc.negDepth > ent.negAtCreate {
			return false, fmt.Errorf("%w: %s", ErrTabledNegation, key)
		}
		for _, run := range ts.runStack {
			run.sawIncomplete = true
		}
		parent := ts.runStack[len(ts.runStack)-1]
		if ent.dfn < parent.minLink {
			parent.minLink = ent.dfn
		}
		// Replay what is known so far and fail; the SCC leader's fixpoint
		// rounds will come back for the rest.
		return e.replayPrefix(ent, g, bs, k)
	}

	ent := &tableEntry{
		predKey:     key,
		goal:        renameTerm(Resolve(g), make(map[*Var]*Var)),
		seen:        make(map[string]bool),
		dfn:         ts.nextDfn,
		minLink:     ts.nextDfn,
		negAtCreate: qc.negDepth,
	}
	ts.nextDfn++
	ts.entries[ck] = ent
	ts.stack = append(ts.stack, ent)

	if err := e.produce(ent, ts, qc, depth); err != nil {
		return false, err
	}
	if ent.minLink != ent.dfn {
		// Part of an outer component: propagate the link, surface the
		// answers known so far, and let the leader finish the job.
		parent := ts.runStack[len(ts.runStack)-1]
		if ent.minLink < parent.minLink {
			parent.minLink = ent.minLink
		}
		return e.replayPrefix(ent, g, bs, k)
	}

	// ent is its own component's leader. If its first pass never read an
	// incomplete table, the answer set is already final; otherwise iterate
	// producer rounds over the component until one inserts nothing new.
	if ent.sawIncomplete {
		leaderIdx := -1
		for i := len(ts.stack) - 1; i >= 0; i-- {
			if ts.stack[i] == ent {
				leaderIdx = i
				break
			}
		}
		for {
			before := ts.inserts
			for i := leaderIdx; i < len(ts.stack); i++ {
				m := ts.stack[i]
				if m.complete {
					continue
				}
				if err := e.produce(m, ts, qc, depth); err != nil {
					return false, err
				}
			}
			if ts.inserts == before {
				break
			}
		}
		for i := leaderIdx; i < len(ts.stack); i++ {
			ts.stack[i].complete = true
		}
		ts.stack = ts.stack[:leaderIdx]
	} else {
		ent.complete = true
		if n := len(ts.stack); n > 0 && ts.stack[n-1] == ent {
			ts.stack = ts.stack[:n-1]
		}
	}
	return e.replay(ent, g, bs, k)
}

// produce runs one full pass of the predicate's clauses against the entry's
// generalized goal, recording every answer not yet in the table. It uses a
// private binding trail, so consumers elsewhere on the stack are untouched.
func (e *Engine) produce(ent *tableEntry, ts *tabState, qc *Qctx, depth int) error {
	ts.runStack = append(ts.runStack, ent)
	defer func() { ts.runStack = ts.runStack[:len(ts.runStack)-1] }()

	pbs := &Bindings{}
	goal := renameTerm(ent.goal, make(map[*Var]*Var))
	_, err := e.call(goal, ent.predKey, qc, pbs, depth+1, func() (bool, error) {
		ans := renameTerm(goal, make(map[*Var]*Var)) // independent snapshot
		vk := variantKey(ans)
		if !ent.seen[vk] {
			ent.seen[vk] = true
			ent.answers = append(ent.answers, ans)
			ts.inserts++
		}
		return false, nil // enumerate every clause solution
	})
	if _, isCut := err.(cutSignal); isCut {
		// Statically unreachable (Table and Add reject cuts); kept as a
		// hard failure rather than a silent semantics change.
		return fmt.Errorf("%w: %s", ErrTabledCut, ent.predKey)
	}
	return err
}

// replay unifies the caller's goal against each recorded answer. Used for
// complete tables; the caller's continuation may stop the search or cut.
func (e *Engine) replay(ent *tableEntry, g Term, bs *Bindings, k Cont) (bool, error) {
	return e.replayN(ent, g, bs, k, len(ent.answers), false)
}

// replayPrefix feeds a consumer the answers known so far — including any
// inserted by the consumer's own continuation while we iterate — then fails.
func (e *Engine) replayPrefix(ent *tableEntry, g Term, bs *Bindings, k Cont) (bool, error) {
	return e.replayN(ent, g, bs, k, -1, true)
}

func (e *Engine) replayN(ent *tableEntry, g Term, bs *Bindings, k Cont, n int, growing bool) (bool, error) {
	for i := 0; growing && i < len(ent.answers) || !growing && i < n; i++ {
		mark := bs.Mark()
		fresh := renameTerm(ent.answers[i], make(map[*Var]*Var))
		if Unify(g, fresh, bs) {
			done, err := k()
			if err != nil {
				return done, err
			}
			if done {
				return true, nil
			}
		}
		bs.Undo(mark)
	}
	return false, nil
}

// variantKey renders a term with unbound variables numbered in order of
// first appearance, so two terms get the same key exactly when they are
// variants of each other. Used both for call patterns and answer dedup.
func variantKey(t Term) string {
	var b strings.Builder
	writeVariant(&b, t, make(map[*Var]int))
	return b.String()
}

func writeVariant(b *strings.Builder, t Term, vars map[*Var]int) {
	switch t := deref(t).(type) {
	case *Var:
		n, ok := vars[t]
		if !ok {
			n = len(vars)
			vars[t] = n
		}
		b.WriteByte('_')
		b.WriteString(strconv.Itoa(n))
	case Atom:
		b.WriteByte('a')
		b.WriteString(strconv.Quote(string(t)))
	case Int:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(int64(t), 10))
	case Float:
		b.WriteByte('f')
		b.WriteString(strconv.FormatFloat(float64(t), 'g', -1, 64))
	case Str:
		b.WriteByte('s')
		b.WriteString(strconv.Quote(string(t)))
	case *Compound:
		b.WriteByte('c')
		b.WriteString(strconv.Quote(t.Functor))
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeVariant(b, a, vars)
		}
		b.WriteByte(')')
	}
}
