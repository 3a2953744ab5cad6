// Package bench is the experiment harness: engine registry, workload
// generators, throughput runners and the E1–E19 experiment suite
// mapped in DESIGN.md — the paper experiments (E1–E8), the serving
// stack (E9), the durability layer (E11), serving-runtime scaling
// (E13), follower reads (E14), the async reply path (E15) and restart
// (E16, E19) — plus the JSON perf-tracking grid and its regression
// gate.
// cmd/oftm-bench regenerates every experiment table from here; the
// root bench_test.go exposes the performance experiments as testing.B
// benchmarks.
package bench

import (
	"fmt"
	"strings"
)

// Table is a minimal aligned-column table printer for experiment
// output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cells beyond the header width are dropped.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
