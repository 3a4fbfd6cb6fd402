package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{Title: "Table X", Headers: []string{"Test", "LZW", "RLE"}}
	t.Add("s13207", 0.8069, 0.803)
	t.Add("s9234", 0.7067, 0.4496)
	t.Note = "note"
	return t
}

func TestPercent(t *testing.T) {
	if got := percent(0.8069); got != "80.69%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestString(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"Table X", "Test", "80.69%", "44.96%", "note", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 2 rows, note
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: both data rows have the same length.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", s)
	}
}

func TestMarkdown(t *testing.T) {
	m := sample().Markdown()
	for _, want := range []string{"**Table X**", "| Test | LZW | RLE |", "|---|---|---|", "| s13207 | 80.69% | 80.30% |", "_note_"} {
		if !strings.Contains(m, want) {
			t.Errorf("markdown missing %q:\n%s", want, m)
		}
	}
}

func TestAddMixedTypes(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b", "c"}}
	tb.Add("x", 42, 0.5)
	if tb.Rows[0][1] != "42" || tb.Rows[0][2] != "50.00%" {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}
