// Package stats renders the experiment harness's per-figure
// reproduction output as plain text and CSV tables.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table used by the experiment
// harness to print each reproduced figure as rows/series.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are free-text lines printed under the table (paper-vs-
	// measured commentary).
	Notes []string
	// Summary carries machine-readable run totals (e.g. "joules") for
	// programmatic consumers — the bench harness's energy regression
	// gate reads it. It is never rendered in text or CSV output.
	Summary map[string]float64
}

// SetSummary records one machine-readable run total.
func (t *Table) SetSummary(key string, v float64) {
	if t.Summary == nil {
		t.Summary = make(map[string]float64)
	}
	t.Summary[key] = v
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a commentary line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// formatFloat renders floats compactly with adaptive precision.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (headers first, no
// title or notes).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
