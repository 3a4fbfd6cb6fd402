package telemetry

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock that advances by step on every reading.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

func TestNilSafety(t *testing.T) {
	// Every operation on disabled instrumentation must be a no-op, not a
	// nil dereference: this is the one-pointer-check contract the hot
	// loop relies on.
	var r *Recorder
	if r.Enabled() || r.Tracing() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit("kind", F("k", 1))
	_, sp := r.StartSpan(context.Background(), "phase")
	sp.End()
	reg := r.Registry()
	if reg != nil {
		t.Fatal("nil recorder returned a registry")
	}
	reg.Counter("c", "").Inc()
	reg.Gauge("g", "").Set(1)
	reg.Histogram("h", "", []float64{1}).Observe(1)
	if got := reg.Snapshot(); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
	var c *Counter
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(4)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || len(h.Snapshot().Buckets) != 0 {
		t.Fatal("nil histogram recorded an observation")
	}
	var ts *TraceSpan
	ts.End()
}

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("lzwtc_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if again := reg.Counter("lzwtc_test_total", ""); again != c {
		t.Fatal("counter registration not idempotent")
	}
	g := reg.Gauge("lzwtc_test_ratio", "a gauge")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lzwtc_test_hist", "", []float64{1, 2, 4})
	// "le" semantics: a value equal to a bound lands in that bound's
	// bucket; the first value above every bound lands in +Inf.
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	wantCum := []int64{2, 4, 5, 7} // le=1, le=2, le=4, le=+Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%v) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", s.Buckets[3].UpperBound)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 4 + 4.5 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramObserveBatch: observing a batch records exactly what
// observing its values one at a time does, for histograms with fewer
// and with more buckets than Observe tallies on its stack, and a batch
// into a small histogram allocates nothing.
func TestHistogramObserveBatch(t *testing.T) {
	for _, nb := range []int{3, 40} {
		bounds := make([]float64, nb)
		for i := range bounds {
			bounds[i] = float64(i + 1)
		}
		reg := NewRegistry()
		one := reg.Histogram("lzwtc_test_one", "", bounds)
		batch := reg.Histogram("lzwtc_test_batch", "", bounds)
		var vs []float64
		for i := 0; i < 200; i++ {
			vs = append(vs, float64(i%(nb+3))*0.75)
		}
		for _, v := range vs {
			one.Observe(v)
		}
		batch.Observe(vs[:77]...)
		batch.Observe()
		batch.Observe(vs[77:]...)
		a, b := one.Snapshot(), batch.Snapshot()
		if a.Count != b.Count || a.Sum != b.Sum {
			t.Fatalf("%d bounds: batch count/sum %d/%v, one at a time %d/%v", nb, b.Count, b.Sum, a.Count, a.Sum)
		}
		for i := range a.Buckets {
			if a.Buckets[i] != b.Buckets[i] {
				t.Fatalf("%d bounds: bucket %d batch %+v, one at a time %+v", nb, i, b.Buckets[i], a.Buckets[i])
			}
		}
	}
	h := NewRegistry().Histogram("lzwtc_test_allocs", "", []float64{1, 2, 4})
	vs := []float64{0.5, 3, 9}
	if n := testing.AllocsPerRun(100, func() { h.Observe(vs...) }); n != 0 {
		t.Fatalf("Observe of a batch allocates %v times, want 0", n)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// `make race` runs it under the race detector.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("lzwtc_conc_total", "").Inc()
				reg.Gauge("lzwtc_conc_gauge", "").Set(float64(i))
				reg.Histogram("lzwtc_conc_hist", "", []float64{10, 100, 1000}).Observe(float64(i))
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("lzwtc_conc_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := reg.Histogram("lzwtc_conc_hist", "", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	s := h.Snapshot()
	if last := s.Buckets[len(s.Buckets)-1].Count; last != workers*perWorker {
		t.Fatalf("+Inf cumulative = %d, want %d", last, workers*perWorker)
	}
}

func TestRecorderEmitConcurrency(t *testing.T) {
	var events []Event
	rec := New(nil, SinkFunc(func(ev Event) { events = append(events, ev) }))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Emit("tick", F("i", i))
			}
		}()
	}
	wg.Wait()
	if len(events) != 800 {
		t.Fatalf("events = %d, want 800 (sink writes must be serialized)", len(events))
	}
}

func TestSpanRecordsDurationAndEvent(t *testing.T) {
	reg := NewRegistry()
	var events []Event
	rec := newWithClock(reg, fakeClock(time.Millisecond), SinkFunc(func(ev Event) { events = append(events, ev) }))
	_, sp := rec.StartSpan(context.Background(), "compress")
	sp.End(F("codes", 7))
	h := reg.Histogram(phaseMetricName("compress"), "", nil)
	if h.Count() != 1 {
		t.Fatalf("phase histogram count = %d, want 1", h.Count())
	}
	// The fake clock steps 1ms per reading; StartSpan takes one reading
	// at start and End one more, so the observed duration is exactly 1ms.
	if got := h.Sum(); math.Abs(got-0.001) > 1e-12 {
		t.Fatalf("phase duration = %vs, want 0.001s", got)
	}
	if len(events) != 1 || events[0].Kind != EventTraceSpan {
		t.Fatalf("events = %+v, want one trace span event", events)
	}
	if name, _ := events[0].Field("name"); name != "compress" {
		t.Fatalf("span name field = %v", name)
	}
	if codes, ok := events[0].Field("codes"); !ok || codes != 7 {
		t.Fatalf("span extra field = %v, %v", codes, ok)
	}
}

func TestPhaseMetricName(t *testing.T) {
	if got := phaseMetricName("decomp.pattern-3"); got != "lzwtc_phase_seconds_decomp_pattern_3" {
		t.Fatalf("phaseMetricName = %q", got)
	}
}
