package datalog_test

import (
	"fmt"
	"log"

	"labflow/internal/datalog"
)

// Example shows the paper's rule syntax and a simple query.
func Example() {
	e := datalog.New()
	err := e.Consult(`
		state(m1, waiting_for_sequencing).
		state(m2, done).
		waiting(M) <- state(M, waiting_for_sequencing).
	`)
	if err != nil {
		log.Fatal(err)
	}
	sols, err := e.Query("waiting(M)", 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range sols {
		fmt.Println(s["M"])
	}
	// Output: m1
}

// ExampleEngine_Query shows the benchmark's counting idiom: setof + length.
func ExampleEngine_Query() {
	e := datalog.New()
	if err := e.Consult(`
		clone(c1). clone(c2). clone(c2). clone(c3).
	`); err != nil {
		log.Fatal(err)
	}
	sols, err := e.Query("setof(C, clone(C), L), length(L, N)", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sols[0]["N"], sols[0]["L"])
	// Output: 3 [c1, c2, c3]
}

// ExampleEngine_RegisterExternCtx wires a Go-backed predicate into
// resolution — the mechanism package lbq uses for the whole database
// vocabulary.
func ExampleEngine_RegisterExternCtx() {
	e := datalog.New()
	squares := map[int64]int64{2: 4, 3: 9}
	e.RegisterExternCtx("square", 2, func(_ *datalog.Qctx, args []datalog.Term, bs *datalog.Bindings, k datalog.Cont) (bool, error) {
		n, ok := datalog.Resolve(args[0]).(datalog.Int)
		if !ok {
			return false, fmt.Errorf("square/2 needs a bound integer")
		}
		sq, ok := squares[int64(n)]
		if !ok {
			return false, nil
		}
		mark := bs.Mark()
		if datalog.Unify(args[1], datalog.Int(sq), bs) {
			done, err := k()
			if err != nil || done {
				return done, err
			}
		}
		bs.Undo(mark)
		return false, nil
	})
	sols, err := e.Query("square(3, X)", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sols[0]["X"])
	// Output: 9
}
