package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"median of ten", ten, 0.5, 5},
		{"p90 of ten", ten, 0.9, 9},
		{"p91 rounds the rank up", ten, 0.91, 10},
		{"p100", ten, 1, 10},
		{"q near zero takes the minimum", ten, 0.001, 1},
		{"median of two takes the lower", []float64{3, 4}, 0.5, 3},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: percentile(q=%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{0, 0.999, 0.5},
		{19, 0.999, 0.5},   // p90 of 19 leaves 1 beyond
		{100, 0.999, 0.9},  // p90 leaves exactly 10
		{199, 0.999, 0.9},  // p95 would leave 9
		{200, 0.999, 0.95}, // p95 leaves exactly 10
		{999, 0.999, 0.95}, // p99 would leave 9
		{1000, 0.999, 0.99},
		{10000, 0.999, 0.999},
		{10000, 0.99, 0.99}, // the workload's cap wins
		{10000, 0.9, 0.9},
		{150, 0.95, 0.9},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestPerInputQuantileAveragesEachInputsQuantile(t *testing.T) {
	byInput := [][]float64{
		{1, 2, 3},        // median 2
		{},               // no samples: left out
		{10, 30, 20, 40}, // median 20 (nearest rank, lower middle)
	}
	if got := perInputQuantile(byInput, 0.5); got != 11 {
		t.Errorf("perInputQuantile = %g, want 11", got)
	}
	if byInput[2][0] != 10 || byInput[2][1] != 30 {
		t.Error("perInputQuantile reordered its input")
	}
	if got := perInputQuantile([][]float64{{}, {}}, 0.5); got != 0 {
		t.Errorf("no samples: got %g, want 0", got)
	}
	if got := minCount(byInput); got != 0 {
		t.Errorf("minCount = %d, want 0", got)
	}
}
