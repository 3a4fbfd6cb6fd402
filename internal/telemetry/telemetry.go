// Package telemetry is the instrumentation substrate for the lzwtc
// pipeline: a metrics registry (counters, gauges, histograms),
// span-style phase timing, and pluggable event sinks (human text, JSONL,
// Prometheus text exposition). Standard library only.
//
// The paper's entire argument is quantitative — compression ratio per
// circuit (Table 3), dictionary/entry-size tradeoffs (Tables 1–2, 4–6)
// and decompressor cycle counts against the ATE clock multiple — so
// every stage of the pipeline records through this package rather than
// through ad-hoc printf. The compressor's hot loop stays cheap by
// construction: every type here is nil-safe, so a disabled pipeline
// (nil *Recorder, nil *Counter, ...) costs exactly one pointer check
// per call site and allocates nothing.
//
// Concurrency: Registry and its metrics are safe for concurrent use
// (atomics throughout). Recorder serializes sink emission internally;
// the sink implementations themselves are single-writer.
package telemetry

import (
	"sync"
	"time"
)

// Field is one key/value pair attached to an Event. Field order is
// preserved by the sinks, so emitters control the rendering order.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one timestamped occurrence in a run: a compressor step, a
// completed trace span, a per-pattern cycle record. Elapsed is the
// offset from the Recorder's start, which keeps event streams
// deterministic under an injected clock.
type Event struct {
	Elapsed time.Duration
	Kind    string
	Fields  []Field
}

// Field returns the value of the named field and whether it is present.
func (e Event) Field(key string) (any, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value, true
		}
	}
	return nil, false
}

// Sink consumes events. Sinks are driven under the Recorder's lock and
// need no internal synchronization.
//
// A sink may additionally implement StepSink to opt out of the
// high-volume per-step event stream; sinks without the method receive
// everything.
type Sink interface {
	Emit(Event)
}

// StepSink is optionally implemented by sinks to declare whether they
// consume per-step events (one per compressor iteration). A sink that
// returns false still receives every event that is emitted, but a
// recorder whose sinks all return false reports Tracing() == false, so
// hot loops skip building step payloads entirely. The ring-buffer
// TraceBuffer returns false; the text and JSONL sinks do not implement
// the interface and so keep the full stream.
type StepSink interface {
	WantsSteps() bool
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Recorder bundles a metrics registry with zero or more event sinks.
// A nil Recorder is the disabled instrumentation: every method is a
// nil-safe no-op, so callers thread one pointer unconditionally.
type Recorder struct {
	reg     *Registry
	sinks   []Sink
	now     func() time.Time
	start   time.Time
	proc    string // process name stamped on trace spans; see WithProcess
	tracing bool   // any sink wants per-step events; fixed at construction
	mu      sync.Mutex // serializes sink emission
}

// New builds a Recorder over an optional registry and sinks. Either may
// be absent: a metrics-only recorder passes no sinks, an events-only
// recorder passes a nil registry.
func New(reg *Registry, sinks ...Sink) *Recorder {
	return NewWithClock(reg, time.Now, sinks...)
}

// NewWithClock is New with an injected clock, for deterministic event
// timestamps in tests and golden files.
func NewWithClock(reg *Registry, now func() time.Time, sinks ...Sink) *Recorder {
	r := &Recorder{reg: reg, sinks: sinks, now: now, start: now()}
	for _, s := range sinks {
		if ss, ok := s.(StepSink); ok && !ss.WantsSteps() {
			continue
		}
		r.tracing = true
		break
	}
	return r
}

// Enabled reports whether any instrumentation is attached.
func (r *Recorder) Enabled() bool { return r != nil }

// Tracing reports whether per-step events have anywhere to go: at
// least one sink that does not opt out via StepSink. Hot loops gate
// the construction of expensive event payloads on this, so a
// metrics-only recorder — or one feeding only the trace ring buffer —
// never pays for step rendering.
func (r *Recorder) Tracing() bool { return r != nil && r.tracing }

// Registry returns the metrics registry, or nil when disabled.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Emit delivers an event to every sink. No-op when disabled or sinkless.
// A sink that panics is disabled and skipped from then on; the panic
// never escapes to the instrumented caller and never poisons the other
// sinks or the recorder's lock.
func (r *Recorder) Emit(kind string, fields ...Field) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	ev := Event{Elapsed: r.now().Sub(r.start), Kind: kind, Fields: fields}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.sinks {
		if s == nil {
			continue
		}
		emitContained(r, i, s, ev)
	}
}

// emitContained drives one sink, converting a panic into permanent
// removal of that sink. Split out so the recover scope covers exactly
// one sink per event.
func emitContained(r *Recorder, i int, s Sink, ev Event) {
	defer func() {
		if recover() != nil {
			r.sinks[i] = nil
		}
	}()
	s.Emit(ev)
}

// PhaseMetricName maps a span name to its registry histogram name,
// normalizing separators to Prometheus-legal characters.
func PhaseMetricName(span string) string {
	b := []byte("lzwtc_phase_seconds_" + span)
	for i := range b {
		switch {
		case b[i] >= 'a' && b[i] <= 'z', b[i] >= 'A' && b[i] <= 'Z',
			b[i] >= '0' && b[i] <= '9', b[i] == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// DurationBuckets returns the default histogram bounds for phase
// durations, in seconds: 1µs to 10s, decades with a 1-2.5-5 split.
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}
