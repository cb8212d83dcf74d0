package datalog

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrDepthLimit is the typed sentinel wrapped by resolution-depth failures;
// match it with errors.Is. The limit is configured with Engine.SetMaxDepth.
var ErrDepthLimit = errors.New("datalog: depth limit exceeded")

// ErrStepBudget is the typed sentinel wrapped when a query exhausts the
// resolution-step budget set on its Qctx (Qctx.MaxSteps).
var ErrStepBudget = errors.New("datalog: resolution step budget exceeded")

// Cont is a search continuation: it returns true to stop the whole search
// (enough answers) and false to ask for more solutions via backtracking.
type Cont func() (bool, error)

// CtxExtern is a predicate implemented outside the engine (for example over
// the LabBase database). It must, for each solution: bind its arguments with
// Unify against bs, call k, undo to its own mark if k returned false, and
// keep enumerating; it returns k's final verdict. The query context lets it
// read from the query's snapshot handle, memoize in its query-local scratch
// space, and refuse updates when the query is read-only.
type CtxExtern func(qc *Qctx, args []Term, bs *Bindings, k Cont) (bool, error)

type builtin func(e *Engine, qc *Qctx, args []Term, bs *Bindings, depth int, k Cont) (bool, error)

// cutSignal unwinds resolution to the clause barrier a cut belongs to.
type cutSignal struct{ barrier int64 }

func (cutSignal) Error() string { return "datalog: cut" }

// Qctx is one query's private resolution context. The engine itself holds
// only the clause database and the builtin/extern registrations; everything
// a single resolution mutates — the cut-barrier counter, extern memoization
// — lives here. Read-only queries therefore share one engine concurrently:
// each brings its own Qctx, the shared clause database is only read, and
// assert/1 and retract/1 (the goals that would mutate it) are rejected.
type Qctx struct {
	// Handle is the store this query's external predicates read from (nil
	// means the live store). The engine never inspects it — it is carried
	// for the externs, which know its concrete type.
	Handle any
	// ReadOnly rejects assert/1 and retract/1, and tells externs to reject
	// their own update predicates, making the query safe to run in
	// parallel with other queries over the same engine.
	ReadOnly bool
	// Memo is query-local scratch space for externs (decoded-record caches
	// and the like), keyed by the consuming package. It is dropped with
	// the query, so nothing memoized can outlive the snapshot it was read
	// from.
	Memo map[string]any
	// MaxSteps, when positive, bounds the number of goal resolutions this
	// query may perform; exceeding it fails the query with an error
	// wrapping ErrStepBudget. Zero means unbounded. It bounds total work
	// (breadth and backtracking included) where the depth limit only
	// bounds the deepest chain.
	MaxSteps int64

	barrier  int64 // cut-barrier counter, private to this resolution
	steps    int64 // resolution steps taken, for MaxSteps
	negDepth int   // negation-as-failure nesting, for the tabling guard
	tab      *tabState
}

// Steps reports how many goal resolutions the query has performed so far.
func (qc *Qctx) Steps() int64 { return qc.steps }

// NewQctx returns a context for one query over handle.
func NewQctx(handle any, readOnly bool) *Qctx {
	return &Qctx{Handle: handle, ReadOnly: readOnly, Memo: make(map[string]any)}
}

// Engine is a deductive-query engine: a clause database plus a resolution
// procedure with backtracking, negation as failure, cut, and the update and
// aggregation builtins of the LabFlow-1 benchmark (assert, retract, setof,
// findall).
//
// Loading (Consult, Add, Declare, RegisterExternCtx) must happen before
// concurrent use. After that, any number of read-only queries (QueryCtx
// with a ReadOnly Qctx) may run in parallel; queries that update the clause
// database need external serialization.
type Engine struct {
	clauses  map[string]*predicate
	builtins map[string]builtin
	externs  map[string]CtxExtern
	tabled   map[string]bool
	out      io.Writer
	maxDepth int
}

// defaultMaxDepth is the resolution depth bound engines start with.
const defaultMaxDepth = 100000

// New returns an engine with the standard builtins and library predicates
// loaded.
func New() *Engine {
	e := &Engine{
		clauses:  make(map[string]*predicate),
		builtins: make(map[string]builtin),
		externs:  make(map[string]CtxExtern),
		out:      os.Stdout,
		maxDepth: defaultMaxDepth,
	}
	registerBuiltins(e)
	if err := e.Consult(prelude); err != nil {
		panic("datalog: prelude failed to load: " + err.Error())
	}
	return e
}

// SetOutput redirects write/1 and friends.
func (e *Engine) SetOutput(w io.Writer) { e.out = w }

// SetMaxDepth bounds resolution depth for subsequent queries; exceeding it
// fails the query with an error wrapping ErrDepthLimit. Non-positive values
// restore the default. Like the other configuration calls it must happen
// before concurrent use.
func (e *Engine) SetMaxDepth(n int) {
	if n <= 0 {
		n = defaultMaxDepth
	}
	e.maxDepth = n
}

// Consult parses and adds a program.
func (e *Engine) Consult(src string) error {
	cs, err := ParseProgram(src)
	if err != nil {
		return err
	}
	for i := range cs {
		if err := e.Add(cs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Add appends one clause to the database (or executes a directive clause,
// as produced by the parser for ":- table name/arity.").
func (e *Engine) Add(c Clause) error {
	key, ok := indicator(c.Head)
	if !ok {
		return fmt.Errorf("datalog: clause head %s is not callable", c.Head)
	}
	if key == tableDirectiveKey {
		h := c.Head.(*Compound)
		return e.Table(string(h.Args[0].(Atom)), int(h.Args[1].(Int)))
	}
	if _, isB := e.builtins[key]; isB {
		return fmt.Errorf("datalog: cannot redefine builtin %s", key)
	}
	if _, isX := e.externs[key]; isX {
		return fmt.Errorf("datalog: cannot redefine external predicate %s", key)
	}
	if e.tabled[key] && bodyHasCut(c.Body) {
		return fmt.Errorf("%w: %s", ErrTabledCut, key)
	}
	p, ok := e.clauses[key]
	if !ok {
		p = newPredicate()
		e.clauses[key] = p
	}
	cc := c
	p.add(&cc)
	return nil
}

// Declare registers an empty dynamic predicate, so querying it fails rather
// than erroring before the first assert.
func (e *Engine) Declare(name string, arity int) {
	key := fmt.Sprintf("%s/%d", name, arity)
	if _, ok := e.clauses[key]; !ok {
		e.clauses[key] = newPredicate()
	}
}

// RegisterExternCtx installs a database-backed predicate that receives the
// query context (snapshot handle, read-only flag, memo space).
func (e *Engine) RegisterExternCtx(name string, arity int, fn CtxExtern) {
	e.externs[fmt.Sprintf("%s/%d", name, arity)] = fn
}

// Solution is one answer: named query variables mapped to resolved terms.
type Solution map[string]Term

// Query runs a goal conjunction and returns up to max solutions (max <= 0
// means all). It runs read-write over the live store; concurrent use needs
// QueryCtx with a read-only context.
func (e *Engine) Query(src string, max int) ([]Solution, error) {
	return e.QueryCtx(NewQctx(nil, false), src, max)
}

// QueryCtx runs a goal conjunction under an explicit query context and
// returns up to max solutions (max <= 0 means all).
func (e *Engine) QueryCtx(qc *Qctx, src string, max int) ([]Solution, error) {
	goals, vars, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	var out []Solution
	bs := &Bindings{}
	_, err = e.solveSeq(goals, qc, bs, 0, func() (bool, error) {
		sol := make(Solution, len(vars))
		for name, v := range vars {
			sol[name] = Resolve(v)
		}
		out = append(out, sol)
		return max > 0 && len(out) >= max, nil
	})
	if cs, ok := err.(cutSignal); ok {
		_ = cs // a top-level cut just stops the search
		err = nil
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// Prove reports whether the goal has at least one solution.
func (e *Engine) Prove(src string) (bool, error) {
	sols, err := e.Query(src, 1)
	return len(sols) > 0, err
}

func (e *Engine) solveSeq(goals []Term, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	if depth > e.maxDepth {
		return false, fmt.Errorf("%w (limit %d)", ErrDepthLimit, e.maxDepth)
	}
	if len(goals) == 0 {
		return k()
	}
	g := goals[0]
	rest := goals[1:]
	return e.solveGoal(g, qc, bs, depth, func() (bool, error) {
		return e.solveSeq(rest, qc, bs, depth, k)
	})
}

func (e *Engine) solveGoal(goal Term, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	if depth > e.maxDepth {
		return false, fmt.Errorf("%w (limit %d)", ErrDepthLimit, e.maxDepth)
	}
	if qc.MaxSteps > 0 {
		if qc.steps++; qc.steps > qc.MaxSteps {
			return false, fmt.Errorf("%w (budget %d)", ErrStepBudget, qc.MaxSteps)
		}
	}
	g := deref(goal)
	switch t := g.(type) {
	case *Var:
		return false, fmt.Errorf("datalog: unbound goal")
	case Atom:
		switch t {
		case "true":
			return k()
		case "fail", "false":
			return false, nil
		case "!":
			// An untagged cut (for example inside call/1): cut to here.
			return k()
		case "nl":
			fmt.Fprintln(e.out)
			return k()
		}
	case *Compound:
		switch t.Functor {
		case "$cut":
			done, err := k()
			if err != nil {
				return done, err
			}
			return done, cutSignal{barrier: int64(t.Args[0].(Int))}
		case ",":
			if len(t.Args) == 2 {
				return e.solveSeq(flattenConj(t), qc, bs, depth, k)
			}
		case ";":
			if len(t.Args) == 2 {
				return e.solveOr(t.Args[0], t.Args[1], qc, bs, depth, k)
			}
		case "->":
			if len(t.Args) == 2 {
				return e.solveIfThenElse(t.Args[0], t.Args[1], Atom("fail"), qc, bs, depth, k)
			}
		case "\\+":
			if len(t.Args) == 1 {
				return e.solveNeg(t.Args[0], qc, bs, depth, k)
			}
		}
	default:
		return false, fmt.Errorf("datalog: goal %s is not callable", g)
	}

	key, ok := indicator(g)
	if !ok {
		return false, fmt.Errorf("datalog: goal %s is not callable", g)
	}
	if b, isB := e.builtins[key]; isB {
		return b(e, qc, goalArgs(g), bs, depth, k)
	}
	if x, isX := e.externs[key]; isX {
		return x(qc, goalArgs(g), bs, k)
	}
	if e.tabled[key] {
		return e.tabledCall(g, key, qc, bs, depth, k)
	}
	return e.call(g, key, qc, bs, depth, k)
}

func goalArgs(g Term) []Term {
	if c, ok := deref(g).(*Compound); ok {
		return c.Args
	}
	return nil
}

// call resolves a user-defined predicate, establishing a cut barrier for the
// clause bodies it tries. Barrier identities come from the query context, so
// concurrent queries never share (or race on) the counter.
func (e *Engine) call(g Term, key string, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	pred, ok := e.clauses[key]
	if !ok {
		return false, fmt.Errorf("datalog: unknown predicate %s", key)
	}
	qc.barrier++
	id := qc.barrier
	for _, ic := range pred.candidates(g) {
		c := ic.c
		mark := bs.Mark()
		seen := make(map[*Var]*Var)
		head := renameTerm(c.Head, seen)
		if Unify(g, head, bs) {
			body := make([]Term, len(c.Body))
			for i, bg := range c.Body {
				body[i] = tagCuts(renameTerm(bg, seen), id)
			}
			done, err := e.solveSeq(body, qc, bs, depth+1, k)
			if cut, isCut := err.(cutSignal); isCut {
				if cut.barrier == id {
					if !done {
						bs.Undo(mark)
					}
					return done, nil
				}
				return done, err // belongs to an outer barrier
			}
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

// tagCuts rewrites cut atoms in a clause body so they unwind to this call's
// barrier. Cuts inside control structures (, ; ->) are transparent; cuts
// inside other goals (call/1, findall/3, ...) are opaque, as in Prolog.
func tagCuts(t Term, id int64) Term {
	switch t := t.(type) {
	case Atom:
		if t == "!" {
			return &Compound{Functor: "$cut", Args: []Term{Int(id)}}
		}
	case *Compound:
		switch t.Functor {
		case ",", ";", "->":
			if len(t.Args) == 2 {
				return &Compound{Functor: t.Functor, Args: []Term{
					tagCuts(t.Args[0], id), tagCuts(t.Args[1], id),
				}}
			}
		}
	}
	return t
}

func (e *Engine) solveOr(a, b Term, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	// if-then-else written (Cond -> Then ; Else).
	if c, ok := deref(a).(*Compound); ok && c.Functor == "->" && len(c.Args) == 2 {
		return e.solveIfThenElse(c.Args[0], c.Args[1], b, qc, bs, depth, k)
	}
	mark := bs.Mark()
	done, err := e.solveGoal(a, qc, bs, depth+1, k)
	if err != nil || done {
		return done, err
	}
	bs.Undo(mark)
	return e.solveGoal(b, qc, bs, depth+1, k)
}

func (e *Engine) solveIfThenElse(cond, then, els Term, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	mark := bs.Mark()
	found := false
	done, err := e.solveGoal(cond, qc, bs, depth+1, func() (bool, error) {
		found = true
		return true, nil // commit to the first solution of Cond
	})
	_ = done
	if cut, isCut := err.(cutSignal); isCut {
		_ = cut
		err = nil
	}
	if err != nil {
		return false, err
	}
	if found {
		done, err := e.solveGoal(then, qc, bs, depth+1, k)
		if err != nil || done {
			return done, err
		}
		bs.Undo(mark)
		return false, nil
	}
	bs.Undo(mark)
	return e.solveGoal(els, qc, bs, depth+1, k)
}

func (e *Engine) solveNeg(g Term, qc *Qctx, bs *Bindings, depth int, k Cont) (bool, error) {
	mark := bs.Mark()
	found := false
	qc.negDepth++
	_, err := e.solveGoal(g, qc, bs, depth+1, func() (bool, error) {
		found = true
		return true, nil
	})
	qc.negDepth--
	if _, isCut := err.(cutSignal); isCut {
		err = nil
	}
	bs.Undo(mark)
	if err != nil {
		return false, err
	}
	if found {
		return false, nil
	}
	return k()
}

// enumerate runs goal, invoking collect (with bindings in place) for every
// solution, and backtracks through all of them. Used by findall and setof.
func (e *Engine) enumerate(goal Term, qc *Qctx, bs *Bindings, depth int, collect func()) error {
	mark := bs.Mark()
	_, err := e.solveGoal(goal, qc, bs, depth+1, func() (bool, error) {
		collect()
		return false, nil // keep backtracking
	})
	bs.Undo(mark)
	if _, isCut := err.(cutSignal); isCut {
		err = nil
	}
	return err
}
