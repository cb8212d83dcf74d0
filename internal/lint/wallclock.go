package lint

import (
	"go/ast"
)

// Wallclock forbids reading the wall clock. The Section-10 experiments must
// be replayable: the table10 goldens and byte-identity tests compare
// simulated counters exactly across runs, which only holds if no code path
// branches on real time.
// Timestamps recorded in the database come from the logical transaction-time
// counter; elapsed-time *measurement* (bench/'s ruler, lfload's run and
// outage timing, the shard router's latency histograms) is the sanctioned
// exception and carries a //lint:allow wallclock directive at each site.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Until outside explicitly allowlisted measurement sites",
	Run:  runWallclock,
}

var wallclockBanned = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallclock(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for name := range wallclockBanned {
				if pkgFunc(p.Info, call, "time", name) {
					p.Reportf(call.Pos(), "time.%s reads the wall clock, which breaks run reproducibility; use the logical clock, or add //lint:allow wallclock <reason> if this is sanctioned measurement", name)
					return true
				}
			}
			return true
		})
	}
}
