package experiments

import (
	"fmt"
	"strings"
	"testing"

	"lzwtc/internal/bench"
)

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	if !strings.HasSuffix(s, "%") {
		t.Fatalf("not a percentage: %q", s)
	}
	var v float64
	if _, err := fmtSscanf(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v / 100
}

func fmtSscanf(s string, v *float64) (int, error) {
	return sscanf(s, v)
}

func TestTable1ShapeLZWWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		lzw := parsePct(t, row[1])
		l7 := parsePct(t, row[2])
		rl := parsePct(t, row[3])
		// The headline shape: LZW wins every row.
		if lzw <= l7 || lzw <= rl {
			t.Errorf("%s: LZW %.4f does not beat LZ77 %.4f / RLE %.4f", row[0], lzw, l7, rl)
		}
		// And lands in the published band (0.55..0.90 across circuits).
		if lzw < 0.55 || lzw > 0.90 {
			t.Errorf("%s: LZW %.4f outside plausible band", row[0], lzw)
		}
	}
}

func TestTable2ShapeImprovesWithClock(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		i4 := parsePct(t, row[2])
		i8 := parsePct(t, row[3])
		i10 := parsePct(t, row[4])
		if !(i4 < i8 && i8 < i10) {
			t.Errorf("%s: improvement not monotone: %.4f %.4f %.4f", row[0], i4, i8, i10)
		}
		if i10 <= 0 {
			t.Errorf("%s: no improvement at 10x", row[0])
		}
	}
}

func TestTable4ShapeCollapsesAtTen(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		c1 := parsePct(t, row[1])
		c7 := parsePct(t, row[3])
		c10 := parsePct(t, row[4])
		// With 2^10 literals filling the whole dictionary there are no
		// compressed codes left: the ratio collapses to ~0 (slightly
		// negative from per-pattern alignment padding).
		if c10 > 0.01 || c10 < -0.05 {
			t.Errorf("%s: C_C=10 with N=1024 should collapse to ~0, got %.4f", row[0], c10)
		}
		if c7 <= c1 {
			t.Errorf("%s: compression should improve from C_C=1 (%.4f) to 7 (%.4f)", row[0], c1, c7)
		}
	}
}

func TestTable5ShapeMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		prev := -1.0
		for _, cell := range row[1:] {
			v := parsePct(t, cell)
			if v+1e-9 < prev {
				t.Errorf("%s: compression fell with larger entries: %v", row[0], row)
				break
			}
			prev = v
		}
	}
}

func TestTable6LongestStringExplainsKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		prev := -1.0
		for _, cell := range row[2:] {
			v := parsePct(t, cell)
			if v+1e-9 < prev {
				t.Errorf("%s: performance fell with larger entries: %v", row[0], row)
				break
			}
			prev = v
		}
	}
}

func TestFiguresRender(t *testing.T) {
	for _, name := range []string{"figure3", "figure4", "figure5", "figure6"} {
		tb, err := run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty", name)
		}
		if tb.String() == "" || tb.Markdown() == "" {
			t.Fatalf("%s: empty rendering", name)
		}
	}
}

func TestFigure4ReconstructsInput(t *testing.T) {
	tb, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Note, "matches input: true") {
		t.Fatalf("figure 4 round trip failed: %s", tb.Note)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := run("table9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) != 12 {
		t.Fatalf("Names = %v", Names())
	}
}

func TestConfigsMatchPaper(t *testing.T) {
	p, err := bench.ByName("s13207")
	if err != nil {
		t.Fatal(err)
	}
	cfg := LZWConfig(p)
	if cfg.CharBits != 7 || cfg.DictSize != 1024 || cfg.EntryBits != 63 {
		t.Fatalf("cfg = %+v", cfg)
	}
	l7 := lz77Config(p)
	if l7.Window() < p.ScanLen {
		t.Fatalf("LZ77 window %d smaller than scan chain %d", l7.Window(), p.ScanLen)
	}
}

// sscanf parses "80.69%" into a fraction-less percentage value.
func sscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}

// TestFigure3Trace pins the worked compression example step by step
// (the Figure 3 golden trace).
func TestFigure3Trace(t *testing.T) {
	tb, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"a)", "", "", "0", "0"},
		{"b)", "0", "2(00)", "0", "0"},
		{"c)", "0", "3(01)", "1", "1"},
		{"d)", "1", "4(10)", "0", "0"},
		{"e)", "", "", "2", "0"},
		{"f)", "2", "5(001)", "1", "1"},
		{"g)", "", "", "4", "0"},
		{"h)", "4", "6(100)", "0", "0"},
		{"i)", "", "", "3", "1"},
		{"j)", "3", "", "3", ""},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", len(tb.Rows), len(want), tb)
	}
	for i, row := range want {
		for j, cell := range row {
			if tb.Rows[i][j] != cell {
				t.Fatalf("row %d col %d = %q, want %q\n%s", i, j, tb.Rows[i][j], cell, tb)
			}
		}
	}
}

// TestFigure4Trace pins the worked decompression example, including the
// dictionary build-up.
func TestFigure4Trace(t *testing.T) {
	tb, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"a)", "0", "", "", "0"},
		{"b)", "0", "2(00)", "0", "0"},
		{"c)", "1", "3(01)", "0", "1"},
		{"d)", "00", "4(10)", "1", "2"},
		{"e)", "10", "5(001)", "2", "4"},
		{"f)", "01", "6(100)", "4", "3"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", len(tb.Rows), len(want), tb)
	}
	for i, row := range want {
		for j, cell := range row {
			if tb.Rows[i][j] != cell {
				t.Fatalf("row %d col %d = %q, want %q\n%s", i, j, tb.Rows[i][j], cell, tb)
			}
		}
	}
}

// TestFigure5Trace pins the hardware decompressor's cycle trace of the
// worked example (the Figure 5 golden trace), including its summary.
func TestFigure5Trace(t *testing.T) {
	tb, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"13", "input shifter", "code 0 latched"},
		{"15", "output shifter", "1 bits to scan chain"},
		{"29", "input shifter", "code 0 latched"},
		{"30", "dictionary memory", "entry 2 <- C_MLAST(1 chars)+first"},
		{"32", "output shifter", "1 bits to scan chain"},
		{"45", "input shifter", "code 1 latched"},
		{"46", "dictionary memory", "entry 3 <- C_MLAST(1 chars)+first"},
		{"48", "output shifter", "1 bits to scan chain"},
		{"61", "input shifter", "code 2 latched"},
		{"61", "FSM + dictionary", "dictionary read 2: 2 chars"},
		{"62", "dictionary memory", "entry 4 <- C_MLAST(1 chars)+first"},
		{"65", "output shifter", "2 bits to scan chain"},
		{"81", "input shifter", "code 4 latched"},
		{"81", "FSM + dictionary", "dictionary read 4: 2 chars"},
		{"82", "dictionary memory", "entry 5 <- C_MLAST(2 chars)+first"},
		{"85", "output shifter", "2 bits to scan chain"},
		{"101", "input shifter", "code 3 latched"},
		{"101", "FSM + dictionary", "dictionary read 3: 2 chars"},
		{"102", "dictionary memory", "entry 6 <- C_MLAST(2 chars)+first"},
		{"105", "output shifter", "2 bits to scan chain"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", len(tb.Rows), len(want), tb)
	}
	for i, row := range want {
		for j, cell := range row {
			if tb.Rows[i][j] != cell {
				t.Fatalf("row %d col %d = %q, want %q\n%s", i, j, tb.Rows[i][j], cell, tb)
			}
		}
	}
	if want := "Output 001001001 in 105 internal cycles (27 tester cycles; raw scan-in would take 9)."; tb.Note != want {
		t.Fatalf("note = %q, want %q", tb.Note, want)
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 || len(tb.Headers) != 7 {
		t.Fatalf("baselines shape: %d rows x %d cols", len(tb.Rows), len(tb.Headers))
	}
	// LZW must beat the baselines the paper compared against (LZ77 and
	// Golomb) on every circuit.
	for _, row := range tb.Rows {
		lzw := parsePct(t, row[1])
		if l7 := parsePct(t, row[2]); lzw <= l7 {
			t.Errorf("%s: LZW %.4f <= LZ77 %.4f", row[0], lzw, l7)
		}
		if gl := parsePct(t, row[3]); lzw <= gl {
			t.Errorf("%s: LZW %.4f <= Golomb %.4f", row[0], lzw, gl)
		}
	}
}

// TestTable1NearPaperValues asserts the measured LZW column lands near
// the reconstructed published values (the substituted workload justifies
// a generous tolerance; the shape tests above are the hard assertions).
func TestTable1NearPaperValues(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	tb, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		paper, ok := paperTable1[row[0]]
		if !ok {
			t.Fatalf("no paper row for %s", row[0])
		}
		lzw := parsePct(t, row[1])
		if diff := lzw - paper[0]; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s: measured LZW %.4f vs paper %.4f (diff %.4f)", row[0], lzw, paper[0], diff)
		}
	}
}
