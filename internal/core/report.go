package core

import (
	"fmt"
	"os"
	"strings"

	"labflow/internal/metrics"
)

func mkdir(path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fmt.Errorf("core: mkdir %s: %w", path, err)
	}
	return nil
}

// FormatTable10 renders the paper's Section-10 table: per interval, one row
// per resource, one column per server version.
//
//	Intvl  Resource      OStore  Texas+TC  Texas  OStore-mm  Texas-mm
//	0.5X   elapsed sec    ...
//	       user cpu sec   ...
//	       sys cpu sec    ...
//	       majflt (sim)   ...
//	       size (bytes)   ...
func FormatTable10(results []*RunResult) string {
	if len(results) == 0 {
		return ""
	}
	header := []string{"Intvl", "Resource"}
	for _, r := range results {
		header = append(header, r.Store)
	}
	tab := metrics.NewTable(header...)

	nRows := len(results[0].Rows)
	rowOf := func(i int) []IntervalRow {
		out := make([]IntervalRow, len(results))
		for j, r := range results {
			if i < len(r.Rows) {
				out[j] = r.Rows[i]
			}
		}
		return out
	}
	addGroup := func(label string, rows []IntervalRow) {
		cell := func(f func(IntervalRow) string) []string {
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = f(r)
			}
			return out
		}
		tab.Row(append([]string{label, "elapsed sec"}, cell(func(r IntervalRow) string { return metrics.Seconds(r.Elapsed) })...)...)
		tab.Row(append([]string{"", "user cpu sec"}, cell(func(r IntervalRow) string { return metrics.Seconds(r.UserCPU) })...)...)
		tab.Row(append([]string{"", "sys cpu sec"}, cell(func(r IntervalRow) string { return metrics.Seconds(r.SysCPU) })...)...)
		tab.Row(append([]string{"", "majflt (sim)"}, cell(func(r IntervalRow) string { return metrics.Comma(r.MajFlt) })...)...)
		tab.Row(append([]string{"", "size (bytes)"}, cell(func(r IntervalRow) string {
			if r.SizeBytes == 0 {
				return "—"
			}
			return metrics.Comma(r.SizeBytes)
		})...)...)
	}
	for i := 0; i < nRows; i++ {
		rows := rowOf(i)
		addGroup(rows[0].Label, rows)
	}
	addGroup("total", func() []IntervalRow {
		out := make([]IntervalRow, len(results))
		for j, r := range results {
			out[j] = r.Total
		}
		return out
	}())

	var b strings.Builder
	fmt.Fprintf(&b, "LabFlow-1 Section-10 table — %d interval(s), identical workload per version\n\n", nRows)
	if err := tab.Write(&b); err != nil {
		return err.Error()
	}
	fmt.Fprintf(&b, "\nWorkload per version: %s clones, %s materials, %s tracking updates, %s queries\n",
		metrics.Comma(results[0].Clones),
		metrics.Comma(results[0].Materials),
		metrics.Comma(results[0].StepCount),
		metrics.Comma(results[0].Total.Queries))
	for _, r := range results {
		if r.SharedCPU {
			b.WriteString("Note: versions ran concurrently — cpu sec columns are process-wide (getrusage)\n" +
				"and include the other versions' cycles; elapsed sec is per-run (monotonic) and\n" +
				"the simulated counters (majflt, size, queries) are exact per version.\n")
			break
		}
	}
	return b.String()
}

// FormatSeries renders the figure analog: elapsed time (and faults) as a
// series over database growth for each version — the divergence plot the
// paper's discussion is about.
func FormatSeries(results []*RunResult) string {
	var b strings.Builder
	b.WriteString("Figure: elapsed milliseconds per interval (series over database growth)\n\n")
	tab := metrics.NewTable(append([]string{"Version"}, labels(results)...)...)
	for _, r := range results {
		cells := []string{r.Store}
		for _, row := range r.Rows {
			cells = append(cells, fmt.Sprintf("%.1f", float64(row.Elapsed.Microseconds())/1000))
		}
		tab.Row(cells...)
	}
	_ = tab.Write(&b)

	b.WriteString("\nFigure: simulated page faults per interval\n\n")
	tab = metrics.NewTable(append([]string{"Version"}, labels(results)...)...)
	for _, r := range results {
		cells := []string{r.Store}
		for _, row := range r.Rows {
			cells = append(cells, metrics.Comma(row.MajFlt))
		}
		tab.Row(cells...)
	}
	_ = tab.Write(&b)

	// The figures themselves: grouped bars over database growth.
	b.WriteString("\n")
	elapsed := metrics.NewBarChart("Figure: elapsed time as the database grows", "ms")
	faults := metrics.NewBarChart("Figure: faults as the database grows", "faults")
	for i := range labels(results) {
		for _, r := range results {
			if i >= len(r.Rows) {
				continue
			}
			row := r.Rows[i]
			elapsed.Add(row.Label, r.Store, float64(row.Elapsed.Microseconds())/1000)
			faults.Add(row.Label, r.Store, float64(row.MajFlt))
		}
	}
	_ = elapsed.Write(&b)
	b.WriteString("\n")
	_ = faults.Write(&b)
	return b.String()
}

func labels(results []*RunResult) []string {
	if len(results) == 0 {
		return nil
	}
	out := make([]string, len(results[0].Rows))
	for i, r := range results[0].Rows {
		out[i] = r.Label
	}
	return out
}

// CheckShape verifies the qualitative findings the reproduction must
// preserve, returning a list of violated expectations (empty = all good):
//
//  1. every version processed the identical workload,
//  2. the main-memory versions report no size and no faults,
//  3. the OStore database is smaller than the Texas databases (compact
//     in-page allocation vs. heap pages),
//  4. Texas+TC faults no more than plain Texas on the same workload
//     (clustering helps locality of reference).
func CheckShape(results []*RunResult) []string {
	var problems []string
	byName := map[string]*RunResult{}
	for _, r := range results {
		byName[r.Store] = r
	}
	for _, r := range results[1:] {
		if r.StepCount != results[0].StepCount || r.Clones != results[0].Clones {
			problems = append(problems,
				fmt.Sprintf("workload mismatch: %s did %d steps vs %s's %d",
					r.Store, r.StepCount, results[0].Store, results[0].StepCount))
		}
	}
	for _, name := range []string{"OStore-mm", "Texas-mm"} {
		if r := byName[name]; r != nil {
			if r.Total.SizeBytes != 0 {
				problems = append(problems, fmt.Sprintf("%s reports a size (%d)", name, r.Total.SizeBytes))
			}
			if r.Total.MajFlt != 0 {
				problems = append(problems, fmt.Sprintf("%s reports faults (%d)", name, r.Total.MajFlt))
			}
		}
	}
	if o, t := byName["OStore"], byName["Texas"]; o != nil && t != nil {
		if o.Total.SizeBytes >= t.Total.SizeBytes {
			problems = append(problems,
				fmt.Sprintf("OStore size %d not smaller than Texas size %d", o.Total.SizeBytes, t.Total.SizeBytes))
		}
	}
	if tc, t := byName["Texas+TC"], byName["Texas"]; tc != nil && t != nil {
		if tc.Total.MajFlt > t.Total.MajFlt {
			problems = append(problems,
				fmt.Sprintf("Texas+TC faults %d exceed Texas faults %d", tc.Total.MajFlt, t.Total.MajFlt))
		}
	}
	return problems
}
