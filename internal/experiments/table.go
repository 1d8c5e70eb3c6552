// Package experiments regenerates every table and figure of the paper's
// evaluation section (and the supporting model figures) from the simulated
// platform, plus the ablation studies DESIGN.md calls out. Each experiment
// returns a Table that renders the same rows/series the paper reports;
// cmd/spibench and the repository benchmarks print them.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	// Title names the experiment ("Figure 6", "Table 1", ...).
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data, stringified.
	Rows [][]string
	// Notes carries commentary (paper reference values, shape claims).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 && i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
