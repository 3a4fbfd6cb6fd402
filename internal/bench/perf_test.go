package bench

import (
	"strings"
	"testing"
)

// TestComparePerfGatesBothDirections: the regression gate must fail a
// case whose compress or decompress ns/char exceeds the tolerance, pass
// one within it, and flag a baseline case missing from the fresh run.
func TestComparePerfGatesBothDirections(t *testing.T) {
	result := func(name string, comp, dec float64) PerfResult {
		return PerfResult{
			Case:       PerfCase{Name: name},
			Compress:   PerfMeasurement{NsPerChar: comp},
			Decompress: PerfMeasurement{NsPerChar: dec},
		}
	}
	base := &PerfReport{Results: []PerfResult{
		result("flat", 10, 10), result("comp", 10, 10), result("dec", 10, 10), result("gone", 10, 10),
	}}
	fresh := &PerfReport{Results: []PerfResult{
		result("flat", 10.5, 9), result("comp", 11.5, 10), result("dec", 10, 11.5),
	}}
	lines, failures := ComparePerf(base, fresh, 0.10)
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %q", len(lines), lines)
	}
	want := []string{"comp: compress", "dec: decompress", "gone: missing"}
	if len(failures) != len(want) {
		t.Fatalf("failures %q, want %d", failures, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(failures[i], w) {
			t.Fatalf("failure %d = %q, want prefix %q", i, failures[i], w)
		}
	}
}

// TestPerfCasesCoverPackedDecode: the grid must time both decoder paths,
// the parent walk (unbounded entries) and the one-word packed-string
// column (the paper default, C_MDATA=63).
func TestPerfCasesCoverPackedDecode(t *testing.T) {
	var packed, walk int
	for _, pc := range perfCases() {
		cfg := pc.Config()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", pc.Name, err)
		}
		if cfg.MaxChars()*cfg.CharBits <= 64 {
			packed++
		} else {
			walk++
		}
	}
	if packed < 2 || walk == 0 {
		t.Fatalf("grid has %d packed-column and %d parent-walk cases", packed, walk)
	}
}
