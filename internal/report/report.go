// Package report renders fixed-width tables in the layout of the paper's
// result tables, for both terminal output and EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string // optional caption printed under the table
}

// Cell formats a float as the paper prints ratios: "80.69%".
func percent(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = percent(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table with a rule under the header, first column
// left-aligned and the rest right-aligned (the paper's layout).
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	w := t.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", w[i], c)
			} else {
				fmt.Fprintf(&sb, "%*s", w[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, x := range w {
		total += x
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(w)-1)))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		sb.WriteString(t.Note)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "\n_%s_\n", t.Note)
	}
	return sb.String()
}
