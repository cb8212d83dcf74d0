// Package metrics provides the plain-text report formatting behind
// labflow's tables (aligned columns in the style of the paper's Section-10
// table, thousands separators) and the latency histogram that lfload and
// the shard router record into. It reads no clock: a caller that measures
// time records durations it took itself.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

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
