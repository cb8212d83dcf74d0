// Package metrics provides the resource accounting behind the benchmark
// reports: wall-clock and CPU timers (getrusage where available) and plain
// text table formatting in the style of the paper's Section-10 table.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Usage is a snapshot (or difference) of resource consumption.
//
// Wall is per-caller: sampled from the monotonic clock, so differences are
// exact elapsed time for whichever goroutine took the two samples. UserCPU,
// SysCPU and MajFlt come from getrusage and are process-wide, so a delta
// belongs to one benchmark run only while that run is the only one in the
// process (core.RunAll runs the versions one after another).
type Usage struct {
	Wall    time.Duration
	UserCPU time.Duration
	SysCPU  time.Duration
	// MajFlt is the operating system's major-fault counter. The benchmark's
	// primary fault metric is the storage managers' simulated fault counter
	// (storage.Stats.Faults), which is deterministic across hosts; this one
	// is reported alongside for completeness.
	MajFlt uint64
}

// baseTime anchors Wall samples. time.Since carries Go's monotonic reading,
// so Usage.Sub differences are immune to wall-clock steps (NTP, suspend) —
// a requirement for trustworthy elapsed-time columns.
var baseTime = time.Now() //lint:allow wallclock monotonic anchor for benchmark wall-time measurement

// Sample returns the current cumulative usage of this process.
func Sample() Usage {
	u := rusageSelf()
	u.Wall = time.Since(baseTime) //lint:allow wallclock benchmark wall-time measurement, never persisted
	return u
}

// Sub returns u - prev.
func (u Usage) Sub(prev Usage) Usage {
	return Usage{
		Wall:    u.Wall - prev.Wall,
		UserCPU: u.UserCPU - prev.UserCPU,
		SysCPU:  u.SysCPU - prev.SysCPU,
		MajFlt:  u.MajFlt - prev.MajFlt,
	}
}

// Seconds formats a duration as seconds with millisecond resolution.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a data row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				b.WriteString(pad(c, widths[i], i != 0))
			} else {
				b.WriteString(c)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// pad left-aligns the first column and right-aligns the rest (numbers).
func pad(s string, w int, rightAlign bool) string {
	if len(s) >= w {
		return s
	}
	fill := strings.Repeat(" ", w-len(s))
	if rightAlign {
		return fill + s
	}
	return s + fill
}

// Comma formats an integer with thousands separators, as in the paper's
// table ("16,629,760").
func Comma(v uint64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}
