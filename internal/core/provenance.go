package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/rules"
)

// The provenance experiment (BENCH_7) measures the recursive lineage queries
// ROADMAP item 2 calls for — "every material derived from X", "everything a
// failed material impacts" — across three evaluation strategies over the
// same derivation DAG:
//
//   - untabled: the pure-Datalog recursive rules under plain SLD resolution.
//     Cost follows derivation *paths*, which is exponential in depth on
//     diamond-shaped DAGs; cells that exhaust the resolution-step budget are
//     reported as lower bounds ("budget" outcome), not omitted.
//   - tabled:   the same rules with derived/2 and downstream/2 tabled
//     (":- table" in rules/provenance.lbq). Cost follows *edges*.
//   - native:   the lbq closure externs (derived_from/2, downstream_of/2,
//     impacted_by/2): a visited-set BFS over the reverse involves index.
//
// Every cell cross-checks sorted answer sets between the modes that
// completed; an inequality fails the whole run.

// stripTableDirectives removes ":- table" lines, producing the untabled
// variant of a rules file.
func stripTableDirectives(src string) string {
	var keep []string
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), ":- table") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// ProvDAG is a generated derivation DAG over an in-memory LabBase store.
type ProvDAG struct {
	DB    *labbase.DB
	Shape string
	Depth int
	Width int
	Root  storage.OID
	Sink  storage.OID
	Nodes int
	Edges int
	Steps int
}

// Close releases the backing store.
func (d *ProvDAG) Close() error { return d.DB.Close() }

// BuildProvDAG generates a seeded derivation DAG of the given shape over a
// fresh in-memory store. Shapes (depth d, width w):
//
//	chain:   m0 -> m1 -> ... -> md; one input, one output per step.
//	fanout:  levels {root}, d-1 levels of w nodes, {sink}; one derivation
//	         step per level boundary consuming the whole previous level
//	         (complete bipartite edges, so ~d*w^2 edges but few steps).
//	diamond: d stacked split/merge stages: m_i -> a_i1..a_iw -> m_i+1.
//	         w^d derivation paths from sink to root, but only 2*w*d edges —
//	         the shape that separates path-cost from edge-cost evaluators.
//
// The seed jitters valid times and names the run; the topology is
// deterministic in (shape, depth, width).
func BuildProvDAG(shape string, depth, width int, seed int64) (*ProvDAG, error) {
	if depth < 1 || width < 1 {
		return nil, fmt.Errorf("provenance: depth and width must be >= 1")
	}
	db, err := labbase.Open(memstore.Open(fmt.Sprintf("prov-%s-%d-%d", shape, depth, width)), labbase.DefaultOptions())
	if err != nil {
		return nil, err
	}
	d := &ProvDAG{DB: db, Shape: shape, Depth: depth, Width: width}
	rng := rand.New(rand.NewSource(seed))
	if err := db.Begin(); err != nil {
		return nil, err
	}
	if _, err := db.DefineMaterialClass("prov_mat", ""); err != nil {
		db.Close()
		return nil, err
	}
	if _, err := db.DefineState("made"); err != nil {
		db.Close()
		return nil, err
	}
	vt := int64(1)
	newMat := func(tag string) (storage.OID, error) {
		vt += 1 + rng.Int63n(3)
		d.Nodes++
		return db.CreateMaterial("prov_mat", fmt.Sprintf("p%d_%s", seed, tag), "made", vt)
	}
	derive := func(inputs, outputs []storage.OID) error {
		vt += 1 + rng.Int63n(3)
		ins := make([]labbase.Value, len(inputs))
		for i, in := range inputs {
			ins[i] = labbase.Ref(in)
		}
		_, err := db.RecordStep(labbase.StepSpec{
			Class: "derive", ValidTime: vt,
			Materials: append(append([]storage.OID{}, inputs...), outputs...),
			Attrs:     []labbase.AttrValue{{Name: lbq.InputsAttr, Value: labbase.ListOf(ins...)}},
		})
		if err == nil {
			d.Steps++
			d.Edges += len(inputs) * len(outputs)
		}
		return err
	}

	build := func() error {
		switch shape {
		case "chain":
			cur, err := newMat("m0")
			if err != nil {
				return err
			}
			d.Root = cur
			for i := 1; i <= depth; i++ {
				next, err := newMat(fmt.Sprintf("m%d", i))
				if err != nil {
					return err
				}
				if err := derive([]storage.OID{cur}, []storage.OID{next}); err != nil {
					return err
				}
				cur = next
			}
			d.Sink = cur
		case "fanout":
			level := make([]storage.OID, 1)
			root, err := newMat("m0")
			if err != nil {
				return err
			}
			level[0] = root
			d.Root = root
			for i := 1; i < depth; i++ {
				next := make([]storage.OID, width)
				for j := range next {
					if next[j], err = newMat(fmt.Sprintf("l%d_%d", i, j)); err != nil {
						return err
					}
				}
				if err := derive(level, next); err != nil {
					return err
				}
				level = next
			}
			sink, err := newMat("sink")
			if err != nil {
				return err
			}
			if err := derive(level, []storage.OID{sink}); err != nil {
				return err
			}
			d.Sink = sink
		case "diamond":
			cur, err := newMat("m0")
			if err != nil {
				return err
			}
			d.Root = cur
			for i := 0; i < depth; i++ {
				mids := make([]storage.OID, width)
				for j := range mids {
					if mids[j], err = newMat(fmt.Sprintf("a%d_%d", i, j)); err != nil {
						return err
					}
				}
				merge, err := newMat(fmt.Sprintf("m%d", i+1))
				if err != nil {
					return err
				}
				// Split: each mid derived from cur individually, so the
				// DAG has w distinct paths through every stage.
				for _, mid := range mids {
					if err := derive([]storage.OID{cur}, []storage.OID{mid}); err != nil {
						return err
					}
				}
				if err := derive(mids, []storage.OID{merge}); err != nil {
					return err
				}
				cur = merge
			}
			d.Sink = cur
		default:
			return fmt.Errorf("provenance: unknown shape %q", shape)
		}
		return nil
	}
	if err := build(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Commit(); err != nil {
		db.Close()
		return nil, err
	}
	return d, nil
}

// ProvCell is one (shape, depth, width, mode) measurement: the sink's
// ancestor closure, counted in resolution steps.
type ProvCell struct {
	Shape           string
	Depth           int
	Width           int
	Nodes           int
	Edges           int
	Mode            string // untabled | tabled | native
	Answers         int
	Outcome         string // ok | budget | skipped (see RunProvenance)
	ResolutionSteps int64
}

// ProvSummary compares the rule evaluators on one DAG by resolution steps.
// Native answers in one extern call, so it enters only the answer-set
// cross-check.
type ProvSummary struct {
	Shape         string
	Depth         int
	Width         int
	Edges         int
	UntabledSteps int64
	UntabledDNF   bool // budget exhausted: the steps are a lower bound
	TabledSteps   int64
	StepRatio     float64 // UntabledSteps / TabledSteps
}

// ProvResult is the full BENCH_7 sweep.
type ProvResult struct {
	BudgetSteps int64
	Seed        int64
	Cells       []ProvCell
	Summary     []ProvSummary
}

// provAnswerSet runs q read-only over a fresh snapshot with a step budget
// and returns the sorted deduplicated answer set for variable v, the
// resolution steps, and whether the budget was exhausted.
func provAnswerSet(b *lbq.Bridge, db *labbase.DB, q, v string, budget int64) ([]string, *ProvCell, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer snap.Close()
	qc := datalog.NewQctx(snap, true)
	qc.MaxSteps = budget
	sols, qerr := b.Engine().QueryCtx(qc, q, 0)
	cell := &ProvCell{Outcome: "ok", ResolutionSteps: qc.Steps()}
	if qerr != nil {
		if errors.Is(qerr, datalog.ErrStepBudget) {
			cell.Outcome = "budget"
			return nil, cell, nil
		}
		return nil, nil, qerr
	}
	set := make(map[string]bool)
	for _, sol := range sols {
		set[sol[v].String()] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	cell.Answers = len(out)
	return out, cell, nil
}

// provBridge builds a bridge over the DAG's store in the given mode.
func provBridge(db *labbase.DB, mode string) (*lbq.Bridge, error) {
	b := lbq.New(db)
	switch mode {
	case "native":
	case "tabled":
		if err := b.Engine().Consult(rules.Provenance); err != nil {
			return nil, err
		}
	case "untabled":
		if err := b.Engine().Consult(stripTableDirectives(rules.Provenance)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("provenance: unknown mode %q", mode)
	}
	return b, nil
}

// provQueries returns the cell's (ancestors, descendants, impact) queries
// for a mode's predicate names.
func provQueries(mode string, d *ProvDAG) (anc, desc, imp string) {
	df, ds, im := "derived", "downstream", "impacted"
	if mode == "native" {
		df, ds, im = "derived_from", "downstream_of", "impacted_by"
	}
	return fmt.Sprintf("%s(%d, A)", df, d.Sink),
		fmt.Sprintf("%s(D, %d)", ds, d.Root),
		fmt.Sprintf("%s(S, %d)", im, d.Root)
}

// MeasureProvDAG runs the three evaluation modes over one DAG: the counted
// metric is the sink's full ancestor closure; descendant and impact closures
// are cross-checked between tabled and native (they are exponential for the
// untabled evaluator on the same shapes as the counted query). Answer-set
// inequality between any two completed modes is an error.
func MeasureProvDAG(d *ProvDAG, budget int64) ([]ProvCell, ProvSummary, error) {
	return measureProvDAG(d, budget, false)
}

// measureProvDAG is MeasureProvDAG, with the untabled run left out when
// skipUntabled is set: its cell reports the budget+1 steps a measured DNF
// reports, with outcome "skipped".
func measureProvDAG(d *ProvDAG, budget int64, skipUntabled bool) ([]ProvCell, ProvSummary, error) {
	sum := ProvSummary{Shape: d.Shape, Depth: d.Depth, Width: d.Width, Edges: d.Edges}
	var cells []ProvCell
	sets := make(map[string][]string)
	for _, mode := range []string{"untabled", "tabled", "native"} {
		b, err := provBridge(d.DB, mode)
		if err != nil {
			return nil, sum, err
		}
		anc, desc, imp := provQueries(mode, d)
		set, cell := []string(nil), &ProvCell{Outcome: "skipped", ResolutionSteps: budget + 1}
		if mode != "untabled" || !skipUntabled {
			if set, cell, err = provAnswerSet(b, d.DB, anc, "A", budget); err != nil {
				return nil, sum, fmt.Errorf("%s %s: %w", mode, anc, err)
			}
		}
		cell.Shape, cell.Depth, cell.Width = d.Shape, d.Depth, d.Width
		cell.Nodes, cell.Edges, cell.Mode = d.Nodes, d.Edges, mode
		cells = append(cells, *cell)
		if cell.Outcome == "ok" {
			sets[mode] = set
		}
		switch mode {
		case "untabled":
			sum.UntabledSteps = cell.ResolutionSteps
			sum.UntabledDNF = cell.Outcome != "ok"
		case "tabled":
			sum.TabledSteps = cell.ResolutionSteps
		}
		// Descendant and impact closures: tabled and native stay O(edges),
		// so cross-check them on every cell (fresh bridge per query keeps
		// tabling state per-run; the budget still applies).
		if mode != "untabled" {
			for _, chk := range []struct{ q, v, label string }{
				{desc, "D", "descendants"},
				{imp, "S", "impact"},
			} {
				set, _, err := provAnswerSet(b, d.DB, chk.q, chk.v, budget)
				if err != nil {
					return nil, sum, fmt.Errorf("%s %s: %w", mode, chk.q, err)
				}
				key := chk.label
				if prev, ok := sets[key]; ok && !slices.Equal(prev, set) {
					return nil, sum, fmt.Errorf("provenance: %s answer sets differ between tabled and native on %s d=%d w=%d",
						chk.label, d.Shape, d.Depth, d.Width)
				}
				sets[key] = set
			}
		}
	}
	if tab, nat := sets["tabled"], sets["native"]; !slices.Equal(tab, nat) {
		return nil, sum, fmt.Errorf("provenance: ancestor answer sets differ between tabled and native on %s d=%d w=%d",
			d.Shape, d.Depth, d.Width)
	}
	if unt, ok := sets["untabled"]; ok && !slices.Equal(unt, sets["tabled"]) {
		return nil, sum, fmt.Errorf("provenance: ancestor answer sets differ between untabled and tabled on %s d=%d w=%d",
			d.Shape, d.Depth, d.Width)
	}
	if sum.TabledSteps > 0 {
		sum.StepRatio = float64(sum.UntabledSteps) / float64(sum.TabledSteps)
	}
	return cells, sum, nil
}

// RunProvenance sweeps shape x depth x mode and returns the BENCH_7 cells.
// Chains run at width 1; fanout and diamond at the given width. Budget
// bounds each untabled query's resolution steps (tabled and native never
// come close on these sizes).
//
// Once a shape's untabled run exhausts the budget at depth d, it is skipped
// at every larger depth of that shape, and its cell reports the DNF it
// would have measured. That holds because untabled steps never fall with
// depth: the sink's ancestor search at depth d+1 contains the search at
// depth d. On a chain the depth-d+1 sink's one parent is the depth-d sink;
// on a fanout each node of the last full level has the same ancestors as
// the depth-d sink; on a diamond every mid of the last stage has the
// depth-d sink as its parent. The nodes inside the contained search are
// involved in at least as many steps as in the smaller DAG, so every goal
// the depth-d search resolves is resolved again, and more.
func RunProvenance(depths []int, width int, budget, seed int64) (*ProvResult, error) {
	res := &ProvResult{BudgetSteps: budget, Seed: seed}
	for _, shape := range []string{"chain", "fanout", "diamond"} {
		dnfDepth := 0 // least depth whose untabled run exhausted the budget
		for _, depth := range depths {
			w := width
			if shape == "chain" {
				w = 1
			}
			dag, err := BuildProvDAG(shape, depth, w, seed)
			if err != nil {
				return nil, err
			}
			cells, sum, err := measureProvDAG(dag, budget, dnfDepth > 0 && depth > dnfDepth)
			dag.Close()
			if err != nil {
				return nil, err
			}
			if sum.UntabledDNF && (dnfDepth == 0 || depth < dnfDepth) {
				dnfDepth = depth
			}
			res.Cells = append(res.Cells, cells...)
			res.Summary = append(res.Summary, sum)
		}
	}
	return res, nil
}
