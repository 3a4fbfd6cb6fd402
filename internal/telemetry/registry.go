package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lzwtc/internal/invariant"
)

// Registry is a concurrency-safe collection of named metrics. Metric
// constructors are idempotent: asking for an existing name returns the
// existing metric, so independent pipeline stages can share counters by
// name without coordination. A nil Registry hands out nil metrics,
// whose operations are all no-ops — the disabled path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name, help string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
		g.setHelp(name, help)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Registry) Gauge(name, help string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.gauges[name]
	if !ok {
		v = &Gauge{}
		g.gauges[name] = v
		g.setHelp(name, help)
	}
	return v
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending upper bounds (an implicit +Inf bucket is always
// appended). Later calls reuse the first registration's bounds.
func (g *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		g.histograms[name] = h
		g.setHelp(name, help)
	}
	return h
}

func (g *Registry) setHelp(name, help string) {
	if help != "" {
		g.help[name] = help
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value; zero on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-on-export buckets with
// Prometheus "le" semantics: an observation v lands in the first bucket
// whose upper bound is >= v, or the implicit +Inf overflow bucket.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records each of vs. No-op on a nil histogram. The values are
// binned locally first, so a batch costs one atomic add per bucket it
// touches plus one count add and one sum update, however many values it
// holds. A hot loop that buffers its values and observes them together
// therefore does not bounce the histogram's cache lines between the
// CPUs of concurrent runs.
func (h *Histogram) Observe(vs ...float64) {
	if h == nil || len(vs) == 0 {
		return
	}
	var stack [32]int64
	tally := stack[:0]
	if len(h.counts) <= len(stack) {
		tally = stack[:len(h.counts)]
	} else {
		tally = make([]int64, len(h.counts))
	}
	var sum float64
	for _, v := range vs {
		tally[sort.SearchFloat64s(h.bounds, v)]++ // first bound >= v, or overflow
		sum += v
	}
	h.ObserveBinned(tally, sum)
}

// ObserveBinned records a batch its caller has already binned: counts[i]
// observations fell in bucket i — the first bound >= the value, index
// len(bounds) for the overflow — and the values sum to sum. counts must
// have one entry per bucket of the bounds the histogram was first
// registered with. It is Observe for callers that can bin faster than a
// bound search, such as integer or monotone values. No-op on a nil
// histogram.
func (h *Histogram) ObserveBinned(counts []int64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		invariant.Violatef("telemetry: %d bucket counts for a %d-bucket histogram", len(counts), len(h.counts))
	}
	var n int64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return
		}
	}
}

// Count returns the number of observations; zero on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; zero on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot captures the histogram's current state with cumulative
// bucket counts. A nil histogram snapshots to the zero value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.bounds)+1),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	return s
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Bucket is one cumulative histogram bucket: the count of observations
// <= UpperBound. UpperBound +Inf marshals as the JSON string "+Inf".
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Name    string   `json:"name,omitempty"`
	Help    string   `json:"help,omitempty"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time capture of a whole registry, sorted by
// metric name — the single source of every exposition format (JSON via
// encoding/json, Prometheus and human text via the Write* methods).
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. A nil registry returns an empty
// snapshot.
func (g *Registry) Snapshot() Snapshot {
	var s Snapshot
	if g == nil {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, c := range g.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Help: g.help[name], Value: c.Value()})
	}
	for name, v := range g.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Help: g.help[name], Value: v.Value()})
	}
	for name, h := range g.histograms {
		hs := h.Snapshot()
		hs.Name = name
		hs.Help = g.help[name]
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterValue returns the named counter's value in this snapshot, or
// zero when absent. The one lookup helper shared by every consumer that
// projects a snapshot into a fixed schema (`lzwtc stats`, /v1/stats,
// run records) so the projections cannot drift over which counters
// exist.
func (s Snapshot) CounterValue(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// GaugeValue returns the named gauge's value in this snapshot, or zero
// when absent.
func (s Snapshot) GaugeValue(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// HistogramNamed returns the named histogram snapshot and whether it is
// present.
func (s Snapshot) HistogramNamed(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}
