// Package report renders experiment results as aligned ASCII tables,
// Markdown, CSV, and JSON, for the exp grid, the artifact campaigns and
// cmd/numabench.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Grow pre-sizes the row list for n more Add calls.
func (t *Table) Grow(n int) {
	if need := len(t.Rows) + n; need > cap(t.Rows) {
		rows := make([][]string, len(t.Rows), need)
		copy(rows, t.Rows)
		t.Rows = rows
	}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float with adaptive precision.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case v == float64(int64(v)) && av < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	// One line buffer reused for every row: cells are written padded
	// with two-space separators, trailing pad spaces stripped — the
	// same bytes the per-row join used to produce.
	buf := make([]byte, 0, 128)
	line := func(cells []string) {
		buf = buf[:0]
		for i, c := range cells {
			if i > 0 {
				buf = append(buf, ' ', ' ')
			}
			buf = append(buf, c...)
			for n := widths[i] - len(c); n > 0; n-- {
				buf = append(buf, ' ')
			}
		}
		for len(buf) > 0 && buf[len(buf)-1] == ' ' {
			buf = buf[:len(buf)-1]
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Write(&sb)
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table
// (pipe-delimited, header separator row), preceded by a "### title"
// heading when the table has one. Cell pipes are escaped so arbitrary
// cell strings cannot break the row structure.
func (t *Table) Markdown(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.Title)
	}
	mdRow := func(cells []string) {
		var sb strings.Builder
		sb.WriteByte('|')
		for _, c := range cells {
			sb.WriteByte(' ')
			sb.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
		io.WriteString(w, sb.String())
	}
	mdRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	mdRow(sep)
	for _, r := range t.Rows {
		mdRow(r)
	}
}

// CSV renders the table as CSV.
func (t *Table) CSV(w io.Writer) {
	buf := make([]byte, 0, 128)
	buf = appendCSVRow(buf, t.Headers)
	w.Write(buf)
	for _, r := range t.Rows {
		buf = appendCSVRow(buf[:0], r)
		w.Write(buf)
	}
}

// JSON writes v as indented JSON followed by a newline. Struct fields
// marshal in declaration order and maps in sorted-key order, so equal
// values always produce byte-identical output — the property the
// parallel experiment runner's determinism guarantee rests on.
func JSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// JSONString renders v as indented JSON, for tests and diffing.
func JSONString(v interface{}) (string, error) {
	var sb strings.Builder
	if err := JSON(&sb, v); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// appendCSVRow appends one CSV line to buf (quoting like the previous
// string-join implementation, byte for byte) and returns it.
func appendCSVRow(buf []byte, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			buf = append(buf, ',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			buf = append(buf, '"')
			for j := 0; j < len(c); j++ {
				if c[j] == '"' {
					buf = append(buf, '"')
				}
				buf = append(buf, c[j])
			}
			buf = append(buf, '"')
		} else {
			buf = append(buf, c...)
		}
	}
	return append(buf, '\n')
}
