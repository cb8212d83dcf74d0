package main

import (
	"fmt"
	"strconv"
	"strings"

	"labflow/internal/core"
)

// The provenance experiment (BENCH_7) runs the recursive lineage queries
// over generated derivation DAGs — chains, fan-outs and stacked diamonds at
// a sweep of depths — under three evaluation strategies: the pure-Datalog
// rules untabled (cost follows derivation paths, exponential on diamonds),
// the same rules tabled (cost follows edges), and the native closure
// externs (BFS over the reverse involves index). It prints the rule
// evaluators' resolution steps; native answers in one extern call. Untabled
// cells are bounded by a resolution-step budget and reported as lower
// bounds ("DNF") when they exhaust it; answer sets are cross-checked
// between every pair of modes that completed, and any inequality fails the
// run. See internal/core/provenance.go and DESIGN §10.
func runProvenance(o options) error {
	var depths []int
	for _, s := range strings.Split(o.depths, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad depth %q", s)
		}
		depths = append(depths, n)
	}
	width := o.width
	if width < 1 {
		return fmt.Errorf("bad width %d", width)
	}
	budget := o.budget
	if budget <= 0 {
		budget = 2_000_000
	}
	seed := o.seed
	if seed == 0 {
		seed = 1
	}

	fmt.Printf("provenance closure: ancestors of the sink, resolution steps untabled vs tabled\n")
	fmt.Printf("untabled budget %d resolution steps; DNF rows are lower bounds\n\n", budget)

	res, err := core.RunProvenance(depths, width, budget, seed)
	if err != nil {
		return err
	}

	fmt.Printf("  %-8s %5s %5s %7s | %14s %12s | %9s\n",
		"shape", "depth", "width", "edges", "untabled steps", "tabled steps", "vs tabled")
	for _, s := range res.Summary {
		unt := fmt.Sprintf("%d", s.UntabledSteps)
		ratio := fmt.Sprintf("%.1fx", s.StepRatio)
		if s.UntabledDNF {
			unt = "DNF>" + unt
			ratio = ">" + ratio
		}
		fmt.Printf("  %-8s %5d %5d %7d | %14s %12d | %9s\n",
			s.Shape, s.Depth, s.Width, s.Edges, unt, s.TabledSteps, ratio)
	}
	fmt.Println("\nanswer-set check: every completed mode pair identical, native included (asserted per cell)")
	return nil
}
