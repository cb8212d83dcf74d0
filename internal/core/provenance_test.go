package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// ancestor counts by construction: chain has depth ancestors of the sink,
// fanout reaches the root plus every intermediate level, diamond reaches all
// split and merge materials above the sink.
func wantAncestors(shape string, depth, width int) int {
	switch shape {
	case "chain":
		return depth
	case "fanout":
		return 1 + (depth-1)*width
	case "diamond":
		return depth * (width + 1)
	}
	return -1
}

func TestBuildProvDAGShapes(t *testing.T) {
	cases := []struct {
		shape                string
		depth, width         int
		wantNodes, wantEdges int
	}{
		{"chain", 5, 1, 6, 5},
		{"fanout", 4, 3, 1 + 3*3 + 1, 3 + 2*9 + 3},
		{"diamond", 3, 2, 3*3 + 1, 3 * 4},
	}
	for _, c := range cases {
		d, err := BuildProvDAG(c.shape, c.depth, c.width, 7)
		if err != nil {
			t.Fatalf("%s: %v", c.shape, err)
		}
		if d.Nodes != c.wantNodes || d.Edges != c.wantEdges {
			t.Errorf("%s d=%d w=%d: nodes=%d edges=%d, want %d/%d",
				c.shape, c.depth, c.width, d.Nodes, d.Edges, c.wantNodes, c.wantEdges)
		}
		// Oracle: the native closure from the sink must reach exactly the
		// analytically known ancestor count.
		b, err := provBridge(d.DB, "native")
		if err != nil {
			t.Fatal(err)
		}
		set, cell, err := provAnswerSet(b, d.DB, fmt.Sprintf("derived_from(%d, A)", d.Sink), "A", 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantAncestors(c.shape, c.depth, c.width); len(set) != want || cell.Answers != want {
			t.Errorf("%s d=%d w=%d: %d ancestors of sink, want %d", c.shape, c.depth, c.width, len(set), want)
		}
		d.Close()
	}
}

// TestMeasureProvDAGEquality runs all three modes on a small diamond and
// requires every mode to complete with identical sorted answer sets.
func TestMeasureProvDAGEquality(t *testing.T) {
	d, err := BuildProvDAG("diamond", 4, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cells, sum, err := MeasureProvDAG(d, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	want := wantAncestors("diamond", 4, 2)
	for _, c := range cells {
		if c.Outcome != "ok" {
			t.Errorf("mode %s: outcome %s", c.Mode, c.Outcome)
		}
		if c.Answers != want {
			t.Errorf("mode %s: %d answers, want %d", c.Mode, c.Answers, want)
		}
		if c.ResolutionSteps == 0 && c.Mode != "native" {
			t.Errorf("mode %s: zero resolution steps recorded", c.Mode)
		}
	}
	if sum.UntabledDNF {
		t.Error("untabled should complete a depth-4 diamond")
	}
}

// TestMeasureProvDAGBudget drives the untabled evaluator into the step
// budget on a deep diamond (2^24 derivation paths) and checks the cell is
// reported as a lower bound while tabled and native still complete and agree.
func TestMeasureProvDAGBudget(t *testing.T) {
	d, err := BuildProvDAG("diamond", 24, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cells, sum, err := MeasureProvDAG(d, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]ProvCell{}
	for _, c := range cells {
		byMode[c.Mode] = c
	}
	if byMode["untabled"].Outcome != "budget" {
		t.Errorf("untabled depth-24 diamond should exhaust a 200k-step budget, got %q", byMode["untabled"].Outcome)
	}
	if !sum.UntabledDNF {
		t.Error("summary should flag the untabled cell as DNF")
	}
	want := wantAncestors("diamond", 24, 2)
	for _, mode := range []string{"tabled", "native"} {
		if byMode[mode].Outcome != "ok" || byMode[mode].Answers != want {
			t.Errorf("%s: outcome=%q answers=%d, want ok/%d", mode, byMode[mode].Outcome, byMode[mode].Answers, want)
		}
	}
}

// TestRunProvenanceSmoke sweeps tiny sizes across every shape; RunProvenance
// itself fails on any cross-mode answer-set inequality.
func TestRunProvenanceSmoke(t *testing.T) {
	res, err := RunProvenance([]int{2, 3}, 2, 1_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3*2*3 {
		t.Fatalf("got %d cells, want 18", len(res.Cells))
	}
	if len(res.Summary) != 6 {
		t.Fatalf("got %d summaries, want 6", len(res.Summary))
	}
	for _, s := range res.Summary {
		if s.UntabledDNF {
			t.Errorf("%s d=%d: tiny cell should not hit the budget", s.Shape, s.Depth)
		}
	}
}

// TestRunProvenanceSkipsPastDNF: once a shape's untabled run exhausts the
// budget, its larger depths skip that run, and a skipped row reads exactly
// as the measured one does. The skip follows depth values, not list order,
// so depths 8,4 give the rows 4,8 gives.
func TestRunProvenanceSkipsPastDNF(t *testing.T) {
	const budget, seed = 20_000, 1
	res, err := RunProvenance([]int{4, 8, 16}, 2, budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	outcome := map[string]string{}
	for _, c := range res.Cells {
		if c.Mode == "untabled" {
			outcome[fmt.Sprintf("%s/%d", c.Shape, c.Depth)] = c.Outcome
		}
	}
	for cell, want := range map[string]string{"fanout/8": "ok", "fanout/16": "budget", "diamond/8": "budget", "diamond/16": "skipped"} {
		if outcome[cell] != want {
			t.Errorf("untabled %s: outcome %q, want %q", cell, outcome[cell], want)
		}
	}
	d, err := BuildProvDAG("diamond", 16, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, measured, err := MeasureProvDAG(d, budget)
	if err != nil {
		t.Fatal(err)
	}
	if skipped := res.Summary[len(res.Summary)-1]; skipped != measured {
		t.Errorf("skipped row %+v, measured row %+v", skipped, measured)
	}

	rows := func(depths ...int) []ProvSummary {
		res, err := RunProvenance(depths, 2, budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(res.Summary, func(i, j int) bool { return res.Summary[i].Depth < res.Summary[j].Depth })
		return res.Summary
	}
	if up, down := rows(4, 8), rows(8, 4); !reflect.DeepEqual(up, down) {
		t.Errorf("depths 4,8 rows %+v\ndepths 8,4 rows %+v", up, down)
	}
}
