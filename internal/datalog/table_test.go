package datalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// sortedAnswers runs a query and returns its solutions formatted and sorted,
// for order-insensitive answer-set comparison.
func sortedAnswers(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	sols, err := e.Query(q, 0)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	out := make([]string, len(sols))
	for i, sol := range sols {
		out[i] = formatSolution(sol)
	}
	sort.Strings(out)
	return out
}

func TestTabledDiamondDeduplicates(t *testing.T) {
	prog := `
		parent(a, b).  parent(a, c).  parent(b, d).  parent(c, d).  parent(d, e).
		anc(X, Y) <- parent(X, Y).
		anc(X, Y) <- parent(X, Z), anc(Z, Y).
	`
	plain := New()
	if err := plain.Consult(prog); err != nil {
		t.Fatal(err)
	}
	tabled := New()
	if err := tabled.Consult(prog); err != nil {
		t.Fatal(err)
	}
	if err := tabled.Table("anc", 2); err != nil {
		t.Fatal(err)
	}
	if !tabled.Tabled("anc", 2) || tabled.Tabled("parent", 2) {
		t.Fatal("Tabled() reporting wrong declarations")
	}

	// Untabled: the diamond a->{b,c}->d yields d and e twice each.
	usols, err := plain.Query("anc(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(usols) != 6 {
		t.Fatalf("untabled anc(a, X) = %d solutions, want 6 (with duplicates)", len(usols))
	}
	// Tabled: each answer exactly once.
	tsols, err := tabled.Query("anc(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tsols) != 4 {
		t.Fatalf("tabled anc(a, X) = %d solutions, want 4 distinct", len(tsols))
	}
	if got, want := sortedAnswers(t, tabled, "anc(a, X)"), []string{"X = b", "X = c", "X = d", "X = e"}; !equalStrings(got, want) {
		t.Fatalf("tabled answers = %v, want %v", got, want)
	}
	// Same answer set as untabled, and the reverse call pattern works too.
	if got, want := sortedAnswers(t, tabled, "anc(X, e)"), sortedAnswers(t, plain, "anc(X, e)"); !equalStrings(got, dedupStrings(want)) {
		t.Fatalf("anc(X, e): tabled %v vs untabled %v", got, want)
	}
}

func TestTabledLeftRecursionTerminates(t *testing.T) {
	// Left recursion loops forever (well, to the depth limit) under SLD;
	// under tabling it is the canonical transitive closure.
	e := New()
	if err := e.Consult(`
		:- table path/2.
		path(X, Y) <- path(X, Z), edge(Z, Y).
		path(X, Y) <- edge(X, Y).
		edge(1, 2).  edge(2, 3).  edge(3, 4).
	`); err != nil {
		t.Fatal(err)
	}
	got := sortedAnswers(t, e, "path(1, X)")
	want := []string{"X = 2", "X = 3", "X = 4"}
	if !equalStrings(got, want) {
		t.Fatalf("path(1, X) = %v, want %v", got, want)
	}

	plain := New()
	if err := plain.Consult(`
		path(X, Y) <- path(X, Z), edge(Z, Y).
		path(X, Y) <- edge(X, Y).
		edge(1, 2).
	`); err != nil {
		t.Fatal(err)
	}
	plain.SetMaxDepth(500)
	if _, err := plain.Query("path(1, X)", 0); !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("untabled left recursion: err = %v, want ErrDepthLimit", err)
	}
}

func TestTabledCyclicGraph(t *testing.T) {
	e := New()
	if err := e.Consult(`
		:- table reach/2.
		reach(X, Y) <- edge(X, Y).
		reach(X, Y) <- edge(X, Z), reach(Z, Y).
		edge(a, b).  edge(b, c).  edge(c, a).  edge(c, d).
	`); err != nil {
		t.Fatal(err)
	}
	got := sortedAnswers(t, e, "reach(a, X)")
	want := []string{"X = a", "X = b", "X = c", "X = d"}
	if !equalStrings(got, want) {
		t.Fatalf("reach(a, X) over a cycle = %v, want %v", got, want)
	}
	// Fully open call: the whole closure, each pair once — the three SCC
	// members each reach all of {a, b, c, d}.
	if got := sortedAnswers(t, e, "reach(X, Y)"); len(got) != 12 {
		t.Fatalf("reach(X, Y) = %d pairs %v, want 12", len(got), got)
	}
}

func TestTabledMutualRecursion(t *testing.T) {
	// even/odd over successor facts: a two-predicate SCC.
	e := New()
	if err := e.Consult(`
		:- table even/1.
		:- table odd/1.
		even(z).
		even(s(X)) <- odd(X).
		odd(s(X)) <- even(X).
	`); err != nil {
		t.Fatal(err)
	}
	ok, err := e.Prove("even(s(s(s(s(z)))))")
	if err != nil || !ok {
		t.Fatalf("even(4) = %v, %v", ok, err)
	}
	ok, err = e.Prove("odd(s(s(z)))")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("odd(2) should fail")
	}
}

func TestTabledMutualRecursionGraph(t *testing.T) {
	// A cross-predicate SCC over a cyclic graph, where the fixpoint needs
	// multiple rounds and both tables complete together.
	e := New()
	if err := e.Consult(`
		:- table hop/2.
		:- table skip/2.
		hop(X, Y) <- edge(X, Y).
		hop(X, Y) <- edge(X, Z), skip(Z, Y).
		skip(X, Y) <- hop(X, Y).
		edge(1, 2).  edge(2, 3).  edge(3, 1).  edge(3, 4).
	`); err != nil {
		t.Fatal(err)
	}
	got := sortedAnswers(t, e, "hop(1, Y)")
	want := []string{"Y = 1", "Y = 2", "Y = 3", "Y = 4"}
	if !equalStrings(got, want) {
		t.Fatalf("hop(1, Y) = %v, want %v", got, want)
	}
}

func TestTabledMatchesUntabledAnswerSets(t *testing.T) {
	// Property check on an acyclic graph (so the untabled program
	// terminates): identical sorted answer sets for several call patterns.
	var facts strings.Builder
	// A layered DAG: 6 layers of 3 nodes, edges between adjacent layers.
	for l := 0; l < 5; l++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if (i+j+l)%2 == 0 {
					fmt.Fprintf(&facts, "edge(n%d_%d, n%d_%d).\n", l, i, l+1, j)
				}
			}
		}
	}
	rules := `
		tc(X, Y) <- edge(X, Y).
		tc(X, Y) <- edge(X, Z), tc(Z, Y).
	`
	plain := New()
	if err := plain.Consult(facts.String() + rules); err != nil {
		t.Fatal(err)
	}
	tabled := New()
	if err := tabled.Consult(":- table tc/2.\n" + facts.String() + rules); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"tc(n0_0, Y)", "tc(X, n5_1)", "tc(X, Y)", "tc(n0_1, n5_2)", "tc(n2_0, Y)"} {
		got := sortedAnswers(t, tabled, q)
		want := dedupStrings(sortedAnswers(t, plain, q))
		if !equalStrings(got, want) {
			t.Fatalf("%s: tabled %v != untabled %v", q, got, want)
		}
	}
}

func TestTabledNonGroundAnswers(t *testing.T) {
	e := New()
	if err := e.Consult(`
		:- table likes/2.
		likes(alice, _).
		likes(bob, carol).
	`); err != nil {
		t.Fatal(err)
	}
	// The open answer likes(alice, _) must replay as an unbound variable
	// that unifies with anything.
	ok, err := e.Prove("likes(alice, quantum_chromodynamics)")
	if err != nil || !ok {
		t.Fatalf("likes(alice, _) replay = %v, %v", ok, err)
	}
	sols, err := e.Query("likes(alice, X)", 0)
	if err != nil || len(sols) != 1 {
		t.Fatalf("likes(alice, X) = %v, %v (want one open answer)", sols, err)
	}
	if _, bound := deref(sols[0]["X"]).(*Var); !bound {
		t.Fatalf("likes(alice, X) should leave X unbound, got %v", sols[0]["X"])
	}
	sols, err = e.Query("likes(bob, X)", 0)
	if err != nil || len(sols) != 1 || sols[0]["X"].String() != "carol" {
		t.Fatalf("likes(bob, X) = %v, %v (want carol)", sols, err)
	}
}

func TestTabledMaxAnswersStopsEarly(t *testing.T) {
	e := New()
	if err := e.Consult(`
		:- table reach/2.
		reach(X, Y) <- edge(X, Y).
		reach(X, Y) <- edge(X, Z), reach(Z, Y).
		edge(1, 2).  edge(2, 3).  edge(3, 4).
	`); err != nil {
		t.Fatal(err)
	}
	sols, err := e.Query("reach(1, X)", 2)
	if err != nil || len(sols) != 2 {
		t.Fatalf("max=2: got %v, %v", sols, err)
	}
}

func TestTabledCutRejected(t *testing.T) {
	// Declaring after a cut-bearing clause exists.
	e := New()
	if err := e.Consult("first(X) <- member(X, [1,2]), !."); err != nil {
		t.Fatal(err)
	}
	if err := e.Table("first", 1); !errors.Is(err, ErrTabledCut) {
		t.Fatalf("Table over cut clause: err = %v, want ErrTabledCut", err)
	}
	// Adding a cut-bearing clause after declaring.
	e2 := New()
	if err := e2.Table("pick", 1); err != nil {
		t.Fatal(err)
	}
	if err := e2.Consult("pick(X) <- member(X, [1,2]), !."); !errors.Is(err, ErrTabledCut) {
		t.Fatalf("Add cut clause to tabled: err = %v, want ErrTabledCut", err)
	}
	// Cut nested in control structures is still transparent, so rejected.
	if err := e2.Consult("pick(X) <- (member(X, [1,2]) -> ! ; true)."); !errors.Is(err, ErrTabledCut) {
		t.Fatalf("nested transparent cut: err = %v, want ErrTabledCut", err)
	}
	// A cut inside findall/3 is opaque (local to the findall) and legal.
	if err := e2.Consult("pick(L) <- findall(X, (member(X, [1,2]), !), L)."); err != nil {
		t.Fatalf("opaque cut inside findall should be allowed: %v", err)
	}
}

func TestTabledCannotTableBuiltinsOrExterns(t *testing.T) {
	e := New()
	if err := e.Table("findall", 3); err == nil {
		t.Fatal("tabling a builtin should fail")
	}
	e.RegisterExternCtx("ext", 1, func(*Qctx, []Term, *Bindings, Cont) (bool, error) { return false, nil })
	if err := e.Table("ext", 1); err == nil {
		t.Fatal("tabling an extern should fail")
	}
	if err := e.Table(",", 2); err == nil {
		t.Fatal("tabling a control construct should fail")
	}
}

func TestTabledNegationGuard(t *testing.T) {
	// Unstratified: win(X) <- move(X, Y), \+ win(Y) over a cycle must be
	// refused, not silently answered.
	e := New()
	if err := e.Consult(`
		:- table win/1.
		win(X) <- move(X, Y), \+ win(Y).
		move(a, b).  move(b, a).
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("win(a)", 0); !errors.Is(err, ErrTabledNegation) {
		t.Fatalf("unstratified negation: err = %v, want ErrTabledNegation", err)
	}

	// Stratified negation over a *complete* table is fine.
	e2 := New()
	if err := e2.Consult(`
		:- table reach/2.
		reach(X, Y) <- edge(X, Y).
		reach(X, Y) <- edge(X, Z), reach(Z, Y).
		edge(a, b).  edge(b, c).
		unreachable(X, Y) <- node(X), node(Y), \+ reach(X, Y).
		node(a). node(b). node(c).
	`); err != nil {
		t.Fatal(err)
	}
	got := sortedAnswers(t, e2, "unreachable(c, Y)")
	want := []string{"Y = a", "Y = b", "Y = c"}
	if !equalStrings(got, want) {
		t.Fatalf("unreachable(c, Y) = %v, want %v", got, want)
	}
}

func TestTabledDirectiveParsing(t *testing.T) {
	for _, src := range []string{":- table anc/2.", "<- table anc/2.", ":- table(anc/2)."} {
		e := New()
		if err := e.Consult(src); err != nil {
			t.Fatalf("consult %q: %v", src, err)
		}
		if !e.Tabled("anc", 2) {
			t.Fatalf("%q did not table anc/2", src)
		}
	}
	for _, src := range []string{":- tabel anc/2.", ":- table anc.", ":- table 3/2.", ":- table anc/x."} {
		if err := New().Consult(src); err == nil {
			t.Fatalf("consult %q should fail", src)
		}
	}
}

func TestDepthLimitSentinel(t *testing.T) {
	e := New()
	if err := e.Consult("loop(X) <- loop(X)."); err != nil {
		t.Fatal(err)
	}
	e.SetMaxDepth(100)
	_, err := e.Query("loop(1)", 0)
	if !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("err = %v, want wrapping ErrDepthLimit", err)
	}
	if !strings.Contains(err.Error(), "100") {
		t.Fatalf("error should name the limit: %v", err)
	}
	// Non-positive restores the default, deep enough for the prelude.
	e.SetMaxDepth(0)
	if ok, err := e.Prove("member(3, [1,2,3])"); err != nil || !ok {
		t.Fatalf("after reset: %v, %v", ok, err)
	}
}

func TestStepBudgetSentinel(t *testing.T) {
	e := New()
	if err := e.Consult(`
		edge(1, 2). edge(2, 3). edge(3, 4).
		tc(X, Y) <- edge(X, Y).
		tc(X, Y) <- edge(X, Z), tc(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	qc := NewQctx(nil, false)
	qc.MaxSteps = 10
	_, err := e.QueryCtx(qc, "tc(1, X), tc(1, Y), tc(X, Y)", 0)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want wrapping ErrStepBudget", err)
	}

	qc2 := NewQctx(nil, false)
	qc2.MaxSteps = 1 << 20
	if _, err := e.QueryCtx(qc2, "tc(1, X)", 0); err != nil {
		t.Fatal(err)
	}
	if qc2.Steps() == 0 {
		t.Fatal("Steps() should count resolutions")
	}
}

func TestTabledQctxSingleUse(t *testing.T) {
	// A Qctx poisoned by an aborted tabled query must refuse reuse rather
	// than silently replaying a half-built table.
	e := New()
	if err := e.Consult(`
		:- table tc/2.
		tc(X, Y) <- edge(X, Y).
		tc(X, Y) <- edge(X, Z), tc(Z, Y), boom(Y).
		edge(1, 2). edge(2, 3).
	`); err != nil {
		t.Fatal(err)
	}
	qc := NewQctx(nil, false)
	if _, err := e.QueryCtx(qc, "tc(1, X)", 0); err == nil {
		t.Fatal("expected unknown predicate boom/1 to abort the query")
	}
	_, err := e.QueryCtx(qc, "tc(1, X)", 0)
	if err == nil || !strings.Contains(err.Error(), "single-use") {
		t.Fatalf("reuse of aborted Qctx: err = %v, want single-use refusal", err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dedupStrings(sorted []string) []string {
	out := sorted[:0:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
