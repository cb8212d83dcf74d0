package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand enforces the repository's seeded-randomness rule: all randomness
// must flow from an explicit rand.New(rand.NewSource(seed)) stream so that a
// run's fault injection, query mix, and generated workload are reproducible
// from the seed alone. Using math/rand's process-global generator (rand.Intn,
// rand.Float64, rand.Seed, ...) couples results to whatever else touched the
// global stream, so two stores fed from one seed would no longer see the
// identical event stream.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid math/rand package-global randomness; require seeded rand.New(rand.NewSource(seed)) streams",
	Run:  runDetrand,
}

// detrandAllowed lists the package-level names of math/rand (and
// math/rand/v2) that do not touch global generator state: constructors and
// type names. Everything else at package level is a view onto the global
// generator and is reported.
var detrandAllowed = map[string]bool{
	// constructors
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors
	"NewPCG": true, "NewChaCha8": true,
}

func runDetrand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			path := obj.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc {
				return true // type names and the like
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an explicit (seeded) generator
			}
			if detrandAllowed[obj.Name()] {
				return true
			}
			short := path[strings.LastIndex(path, "/")+1:]
			if short == "v2" {
				short = "rand/v2"
			}
			p.Reportf(sel.Pos(), "%s.%s uses the process-global generator; draw from a seeded rand.New(rand.NewSource(seed)) stream instead", short, obj.Name())
			return true
		})
	}
}
