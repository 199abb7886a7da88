// Package export renders experiment results as aligned text tables and CSV
// files — the output format of the benchmark harness that regenerates the
// paper's tables and figures.
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v unless already
// strings.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
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
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Ragged rows may carry more cells than the header; cells
			// beyond the last column have no width to align to.
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV stores the table as a CSV file (header row included). Ragged
// rows are padded with empty cells to a common width so strict CSV readers
// (which reject records of varying length) can parse the file.
func (t *Table) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	defer f.Close()
	width := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	pad := func(cells []string) []string {
		if len(cells) >= width {
			return cells
		}
		return append(append(make([]string, 0, width), cells...),
			make([]string, width-len(cells))...)
	}
	w := csv.NewWriter(f)
	if err := w.Write(pad(t.Columns)); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	for _, r := range t.Rows {
		if err := w.Write(pad(r)); err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	w.Flush()
	return w.Error()
}
