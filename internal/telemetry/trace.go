package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// Request tracing. A trace is the tree of timed spans behind one
// user-visible request: the client HTTP call, the lzwtcd handler, the
// worker-pool job it dispatches, and the core compress/decompress
// phases underneath. Span identity (trace ID, span ID, parent ID)
// travels through context.Context inside a process and through the
// X-Lzwtc-Trace header between processes, so a single `lzwtc remote
// compress` yields one connected trace spanning both sides.
//
// The disabled path stays as cheap as the rest of this package: a nil
// *Recorder makes StartSpan a single pointer check returning the
// context unchanged, and TraceSpan.End on nil is a no-op.

// TraceID identifies one request tree across processes.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex, the wire form used in the
// X-Lzwtc-Trace header and in span records.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as fixed-width hex.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanContext is the propagated identity of one span: enough for a
// child (possibly in another process) to link itself into the trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a real trace identity.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// String renders the context in the X-Lzwtc-Trace wire form
// "<16 hex trace>-<16 hex span>".
func (sc SpanContext) String() string {
	return sc.TraceID.String() + "-" + sc.SpanID.String()
}

// ParseSpanContext parses the wire form produced by String. It rejects
// anything malformed or carrying a zero ID, so a hostile header can at
// worst start a fresh trace.
func ParseSpanContext(s string) (SpanContext, bool) {
	if len(s) != 33 || s[16] != '-' {
		return SpanContext{}, false
	}
	var raw [8]byte
	if _, err := hex.Decode(raw[:], []byte(s[:16])); err != nil {
		return SpanContext{}, false
	}
	tid := TraceID(binary.BigEndian.Uint64(raw[:]))
	if _, err := hex.Decode(raw[:], []byte(s[17:])); err != nil {
		return SpanContext{}, false
	}
	sid := SpanID(binary.BigEndian.Uint64(raw[:]))
	sc := SpanContext{TraceID: tid, SpanID: sid}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

type spanCtxKey struct{}

type requestIDKey struct{}

// ContextWithSpan returns ctx carrying sc as the current span, the
// parent for spans started beneath it.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the current span identity, or ok=false when
// ctx carries none.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// ContextWithRequestID returns ctx carrying a request ID, attached to
// span records and echoed in error envelopes so client-reported
// failures join to server traces.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID carried by ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-digit request identifier.
func NewRequestID() string {
	var b [8]byte
	randFill(b[:])
	return hex.EncodeToString(b[:])
}

// randFill fills b from crypto/rand, falling back to a process-local
// counter if the system source fails (IDs must never be zero, but need
// no cryptographic strength — they only disambiguate traces).
func randFill(b []byte) {
	if _, err := rand.Read(b); err == nil {
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
	idFallback.mu.Lock()
	idFallback.n++
	n := idFallback.n
	idFallback.mu.Unlock()
	binary.BigEndian.PutUint64(b[len(b)-8:], n)
}

var idFallback struct {
	mu sync.Mutex
	n  uint64
}

func newTraceID() TraceID {
	var b [8]byte
	randFill(b[:])
	return TraceID(binary.BigEndian.Uint64(b[:]))
}

func newSpanID() SpanID {
	var b [8]byte
	randFill(b[:])
	return SpanID(binary.BigEndian.Uint64(b[:]))
}

// EventTraceSpan is the event kind carrying one completed trace span.
const EventTraceSpan = "trace.span"

// WithProcess sets the process name ("lzwtcd", "client", ...) the
// recorder stamps on every trace span, so merged multi-process traces
// stay attributable, and returns the same recorder for chaining. It
// mutates r rather than copying it: nil-safe, and to be called at
// construction time, before the recorder is shared.
func (r *Recorder) WithProcess(proc string) *Recorder {
	if r == nil {
		return nil
	}
	r.proc = proc
	return r
}

// StartSpan starts a trace span named name as a child of the span in
// ctx (or as a new trace root when ctx carries none) and returns a
// context carrying the child identity. A nil Recorder returns ctx
// unchanged and a nil span: one pointer check, zero allocations.
func (r *Recorder) StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	if r == nil {
		return ctx, nil
	}
	sp := &TraceSpan{r: r, name: name, start: r.now()}
	if parent, ok := SpanFromContext(ctx); ok {
		sp.sc.TraceID = parent.TraceID
		sp.parent = parent.SpanID
	} else {
		sp.sc.TraceID = newTraceID()
	}
	sp.sc.SpanID = newSpanID()
	sp.reqID = RequestIDFromContext(ctx)
	return ContextWithSpan(ctx, sp.sc), sp
}

// TraceSpan is one in-flight trace span. Created by Recorder.StartSpan.
type TraceSpan struct {
	r      *Recorder
	name   string
	sc     SpanContext
	parent SpanID
	reqID  string
	start  time.Time
	ended  bool
}

// Context returns the span's propagated identity. Nil-safe: a nil span
// returns the zero (invalid) SpanContext.
func (s *TraceSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// End completes the span: it observes the phase-duration histogram for
// the span name and emits an EventTraceSpan event carrying the span
// identity, timing, and any extra fields. Nil-safe and idempotent —
// only the first End records, so a deferred End backing up an explicit
// one cannot double-emit.
func (s *TraceSpan) End(fields ...Field) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.r.now()
	d := end.Sub(s.start)
	s.r.reg.Histogram(PhaseMetricName(s.name), "phase duration in seconds", DurationBuckets()).
		Observe(d.Seconds())
	ev := make([]Field, 0, 8+len(fields))
	ev = append(ev,
		F("trace_id", s.sc.TraceID.String()),
		F("span_id", s.sc.SpanID.String()),
	)
	if s.parent != 0 {
		ev = append(ev, F("parent_id", s.parent.String()))
	}
	ev = append(ev, F("name", s.name))
	if s.r.proc != "" {
		ev = append(ev, F("proc", s.r.proc))
	}
	if s.reqID != "" {
		ev = append(ev, F("request_id", s.reqID))
	}
	ev = append(ev,
		F("start_unix_us", s.start.UnixMicro()),
		F("dur_us", d.Microseconds()),
	)
	ev = append(ev, fields...)
	s.r.Emit(EventTraceSpan, ev...)
}

// SpanRecord is the decoded form of one EventTraceSpan event: what the
// ring buffer stores, /debug/trace/recent serves, and `lzwtc trace`
// reads back from JSONL streams.
type SpanRecord struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	Process     string            `json:"proc,omitempty"`
	RequestID   string            `json:"request_id,omitempty"`
	StartUnixUS int64             `json:"start_unix_us"`
	DurUS       int64             `json:"dur_us"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// SpanRecordFromEvent decodes an EventTraceSpan event. ok is false for
// any other event kind.
func SpanRecordFromEvent(ev Event) (SpanRecord, bool) {
	if ev.Kind != EventTraceSpan {
		return SpanRecord{}, false
	}
	var rec SpanRecord
	for _, f := range ev.Fields {
		switch f.Key {
		case "trace_id":
			rec.TraceID, _ = f.Value.(string)
		case "span_id":
			rec.SpanID, _ = f.Value.(string)
		case "parent_id":
			rec.ParentID, _ = f.Value.(string)
		case "name":
			rec.Name, _ = f.Value.(string)
		case "proc":
			rec.Process, _ = f.Value.(string)
		case "request_id":
			rec.RequestID, _ = f.Value.(string)
		case "start_unix_us":
			rec.StartUnixUS = asInt64(f.Value)
		case "dur_us":
			rec.DurUS = asInt64(f.Value)
		default:
			if rec.Attrs == nil {
				rec.Attrs = make(map[string]string)
			}
			rec.Attrs[f.Key] = fmt.Sprintf("%v", f.Value)
		}
	}
	return rec, rec.TraceID != "" && rec.SpanID != ""
}

func asInt64(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case int:
		return int64(n)
	case float64:
		return int64(n)
	case uint64:
		return int64(n)
	}
	return 0
}

// TraceRecord is one trace's worth of spans, in emission order.
type TraceRecord struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
}

// maxSpansPerTrace bounds how many spans the ring buffer retains per
// trace, so a runaway span emitter cannot grow one entry without bound.
const maxSpansPerTrace = 512

// TraceBuffer is a Sink retaining the most recent traces in a ring:
// completed spans are grouped by trace ID, and when the buffer holds
// more than its capacity in distinct traces, whole oldest traces are
// evicted. Safe for concurrent Emit/Recent (it carries its own lock:
// Recorder serializes Emit, but Recent is called from HTTP handlers).
//
// TraceBuffer wants only span events — it reports WantsSteps false, so
// a recorder whose only sink is the ring buffer does not pay for
// per-step event payload construction in the compress hot loop.
type TraceBuffer struct {
	mu       sync.Mutex
	capacity int
	byID     map[string]*TraceRecord
	order    []string // trace IDs, oldest first
}

// NewTraceBuffer returns a ring buffer retaining up to capacity traces
// (default 64 when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceBuffer{
		capacity: capacity,
		byID:     make(map[string]*TraceRecord, capacity),
	}
}

// WantsSteps reports that this sink has no use for per-step events.
func (b *TraceBuffer) WantsSteps() bool { return false }

// Emit implements Sink, retaining trace.span events and ignoring all
// other kinds.
func (b *TraceBuffer) Emit(ev Event) {
	rec, ok := SpanRecordFromEvent(ev)
	if !ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	tr := b.byID[rec.TraceID]
	if tr == nil {
		if len(b.order) >= b.capacity {
			oldest := b.order[0]
			b.order = b.order[1:]
			delete(b.byID, oldest)
		}
		tr = &TraceRecord{TraceID: rec.TraceID}
		b.byID[rec.TraceID] = tr
		b.order = append(b.order, rec.TraceID)
	}
	if len(tr.Spans) < maxSpansPerTrace {
		tr.Spans = append(tr.Spans, rec)
	}
}

// Recent returns up to n traces, newest first. Each returned record is
// a copy, safe to serialize without further locking.
func (b *TraceBuffer) Recent(n int) []TraceRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > len(b.order) {
		n = len(b.order)
	}
	out := make([]TraceRecord, 0, n)
	for i := len(b.order) - 1; i >= 0 && len(out) < n; i-- {
		tr := b.byID[b.order[i]]
		cp := TraceRecord{TraceID: tr.TraceID, Spans: append([]SpanRecord(nil), tr.Spans...)}
		out = append(out, cp)
	}
	return out
}

// Len returns the number of traces currently retained.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.order)
}
