package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so a spread
// computed here matches one computed by a driver script.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every untraced run of a workload.
func (f *resultsFile) values(workload, name string) []float64 {
	var v []float64
	for _, c := range f.Cells {
		if c.Workload == workload && !c.Traced {
			if m, ok := c.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, B's as a ratio of A's, the bound and a verdict. A metric is
// unresolved when either side's run-to-run spread is wider than its bound,
// worse when B's median is worse than A's by more than the bound. It
// returns 1 if any row is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := cmp.Or(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *resultsFile, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "A: %+v\nB: %+v\n", a.Environment, b.Environment)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tB/A (base A)\tspread A\tspread B\tbound\tverdict")
	worse := 0
	for _, def := range workloads {
		for _, e := range endToEnd {
			va, vb := a.values(def.name, e.name), b.values(def.name, e.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb, ma) - 1 // positive = B larger
			if e.better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > e.bound || spread(vb) > e.bound:
				verdict = "unresolved"
			case change > e.bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f (%.4f)\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				def.name, e.name, e.unit, ma, mb, ratio(mb, ma), ma, 100*spread(va), 100*spread(vb), 100*e.bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return 1
	}
	return 0
}
