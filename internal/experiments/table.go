// Package experiments implements the E1–E15 evaluation harness defined in
// DESIGN.md §4: each experiment reifies one verbatim claim of the paper
// into a measured table (E11–E15 extend the suite to the serving layer's
// durability, online-forecasting, tiered-storage, trajectory-synopses and
// observability subsystems). The same functions back
// the root bench_test.go benchmarks and the cmd/datacron-bench report
// tool. Pass quick=true for test-sized workloads, quick=false for the full
// experiment scale.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID     string // "E1"…"E10"
	Title  string // the claim under test
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
