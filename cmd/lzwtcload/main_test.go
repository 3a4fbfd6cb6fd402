package main

import (
	"bytes"
	"context"
	"math"
	"testing"

	"lzwtc"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5},
		{0.90, 9},
		{0.99, 10},
		{1.00, 10},
		{0.01, 1},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %g, want 7", got)
	}
}

func TestParseHistograms(t *testing.T) {
	text := `# HELP lzwtcd_request_seconds request latency
# TYPE lzwtcd_request_seconds histogram
lzwtcd_request_seconds_bucket{le="0.005"} 2
lzwtcd_request_seconds_bucket{le="0.05"} 8
lzwtcd_request_seconds_bucket{le="0.5"} 10
lzwtcd_request_seconds_bucket{le="+Inf"} 10
lzwtcd_request_seconds_sum 0.42
lzwtcd_request_seconds_count 10
lzwtc_jobs_duration_seconds_bucket{le="1"} 0
lzwtc_jobs_duration_seconds_bucket{le="+Inf"} 3
lzwtc_jobs_duration_seconds_sum 9.9
lzwtc_jobs_duration_seconds_count 3
lzwtcd_requests_total 44
`
	hists := parseHistograms(text)
	h := hists["lzwtcd_request_seconds"]
	if h == nil {
		t.Fatal("lzwtcd_request_seconds not parsed")
	}
	if h.count != 10 || len(h.bounds) != 4 {
		t.Fatalf("count=%d bounds=%v", h.count, h.bounds)
	}
	if got := h.quantile(0.50); got != 0.05 {
		t.Errorf("p50 = %g, want 0.05 (first bucket covering rank 5)", got)
	}
	if got := h.quantile(0.10); got != 0.005 {
		t.Errorf("p10 = %g, want 0.005", got)
	}
	if got := h.quantile(0.99); got != 0.5 {
		t.Errorf("p99 = %g, want 0.5", got)
	}
	j := hists["lzwtc_jobs_duration_seconds"]
	if j == nil || j.count != 3 {
		t.Fatalf("jobs histogram: %+v", j)
	}
	if got := j.quantile(0.5); !math.IsInf(got, 1) {
		t.Errorf("jobs p50 = %g, want +Inf (only the overflow bucket is populated)", got)
	}
	if _, ok := hists["lzwtcd_requests_total"]; ok {
		t.Error("plain counter leaked into the histogram map")
	}
}

func TestParseBucketAndCountLines(t *testing.T) {
	name, bound, count, ok := parseBucketLine(`x_seconds_bucket{le="0.25"} 7`)
	if !ok || name != "x_seconds" || bound != 0.25 || count != 7 {
		t.Fatalf("bucket line: %q %g %d %v", name, bound, count, ok)
	}
	if _, _, _, ok := parseBucketLine(`x_seconds_bucket{le="nope"} 7`); ok {
		t.Error("garbage bound accepted")
	}
	if _, _, _, ok := parseBucketLine(`x_seconds_sum 1.5`); ok {
		t.Error("sum line accepted as bucket")
	}
	name, count, ok = parseCountLine("x_seconds_count 12")
	if !ok || name != "x_seconds" || count != 12 {
		t.Fatalf("count line: %q %d %v", name, count, ok)
	}
	if _, _, ok := parseCountLine(`x_seconds_bucket{le="1"} 12`); ok {
		t.Error("bucket line accepted as count")
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	var h histogram
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

func TestFmtBound(t *testing.T) {
	if got := fmtBound(math.Inf(1)); got != "+Inf" {
		t.Errorf("fmtBound(+Inf) = %q", got)
	}
	if got := fmtBound(0.05); got != "0.05" {
		t.Errorf("fmtBound(0.05) = %q", got)
	}
}

// TestSyntheticSetDeterministic: the generator is a fixed-seed LCG, so
// two runs must produce identical sets — the load generator depends on
// this to byte-compare every response against one local reference.
func TestSyntheticSetDeterministic(t *testing.T) {
	a, err := syntheticSet(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := syntheticSet(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cubes) != 64 || a.Width != 32 {
		t.Fatalf("set shape: %d patterns, width %d", len(a.Cubes), a.Width)
	}
	var wa, wb bytes.Buffer
	if err := a.WriteCubes(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCubes(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("syntheticSet is not deterministic across calls")
	}
	// The set must actually contain don't-care bits, or the load test
	// would not exercise the X-aware dictionary paths.
	if !bytes.Contains(wa.Bytes(), []byte("X")) {
		t.Fatal("synthetic set has no X bits")
	}
	// And it must compress cleanly with the default config.
	if _, err := lzwtc.Compress(context.Background(), a, lzwtc.DefaultConfig(), lzwtc.Options{}); err != nil {
		t.Fatalf("synthetic set does not compress: %v", err)
	}
}
