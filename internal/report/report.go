// Package report renders experiment results as aligned ASCII tables, CSV,
// and terminal line plots, so every figure and table of the paper can be
// regenerated on a plain terminal with no plotting dependencies.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := len(widths)*2 - 2
	for _, width := range widths {
		total += width
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders labelled series as a CSV body with a shared x column. All
// series must share the x grid; ragged series error.
func CSV(w io.Writer, xName string, x []float64, names []string, series [][]float64) error {
	if len(names) != len(series) {
		return fmt.Errorf("report: %d names for %d series", len(names), len(series))
	}
	for i, s := range series {
		if len(s) != len(x) {
			return fmt.Errorf("report: series %q has %d points, x has %d", names[i], len(s), len(x))
		}
	}
	header := append([]string{xName}, names...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := range x {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, strconv.FormatFloat(x[i], 'g', -1, 64))
		for _, s := range series {
			cells = append(cells, strconv.FormatFloat(s[i], 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
