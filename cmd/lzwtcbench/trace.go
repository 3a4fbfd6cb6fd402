package main

import (
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lzwtc/client"
	"lzwtc/internal/jobs"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// Spans the benchmark records around its own calls into the program.
// They exist only in traced runs and belong to no layer of the program:
// spanOp is the root of one op, and spanCompress and spanDecompress
// wrap each half of it, so client-side work outside client.request
// (rendering the request body, reading and parsing the response, the
// sleeps between job polls) is timed too.
const (
	spanOp         = "bench.op"
	spanCompress   = "bench.compress"
	spanDecompress = "bench.decompress"
)

// spanSink keeps trace.span events in memory until the run ends. It
// reports WantsSteps false: a sink that takes the per-step event stream
// would switch on step rendering in the match loop and so measure a
// different program. The server's recorders and the benchmark's share
// one sink, so Emit locks.
type spanSink struct {
	on     atomic.Bool
	mu     sync.Mutex
	events []telemetry.Event
}

// maxSpanEvents bounds the sink's memory; a traced run records a few
// hundred thousand spans at most.
const maxSpanEvents = 1 << 21

func (s *spanSink) WantsSteps() bool { return false }

func (s *spanSink) Emit(ev telemetry.Event) {
	if ev.Kind != telemetry.EventTraceSpan || !s.on.Load() {
		return
	}
	s.mu.Lock()
	if len(s.events) < maxSpanEvents {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// snapshot returns the events recorded so far.
func (s *spanSink) snapshot() []telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.Event(nil), s.events...)
}

// writeJSONL writes the recorded spans as the JSONL stream `lzwtc
// trace` reads.
func (s *spanSink) writeJSONL(w io.Writer) error {
	out := telemetry.NewJSONLSink(w)
	for _, ev := range s.snapshot() {
		out.Emit(ev)
	}
	return out.Err()
}

// interval is a half-open [start, end) span of microseconds.
type interval struct{ start, end int64 }

// unionLength returns the total length covered by ivs, counting
// overlapping parts once. It reorders ivs.
func unionLength(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// clip returns the part of iv inside within, or an empty interval.
func clip(iv, within interval) interval {
	if iv.start < within.start {
		iv.start = within.start
	}
	if iv.end > within.end {
		iv.end = within.end
	}
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

func spanInterval(n *telemetry.SpanNode) interval {
	return interval{n.StartUnixUS, n.StartUnixUS + n.DurUS}
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span. telemetry.SpanNode.Self
// subtracts whole child durations instead, which reads 0 for a span
// whose child outlives it (server.job.submit and its job.run) and
// double-counts children that run in parallel.
func selfTime(n *telemetry.SpanNode) int64 {
	own := spanInterval(n)
	ivs := make([]interval, 0, len(n.Children))
	for _, c := range n.Children {
		ivs = append(ivs, clip(spanInterval(c), own))
	}
	return n.DurUS - unionLength(ivs)
}

// traceSummary is what one traced run's spans say about its ops.
type traceSummary struct {
	ops     int              // op roots found
	opUS    int64            // summed op root durations
	selfUS  map[string]int64 // summed self time by span name
	count   map[string]int   // span count by name
	coverUS int64            // op time during which some program span was open
	// queueWaitUS sums, per job, job.run start minus the end of the
	// server.job.submit span that admitted it.
	queueWaitUS int64
	jobs        int
	// polls counts job status requests.
	polls int
}

// summarize groups span events into traces and sums self times over
// every trace rooted at an op span.
func summarize(events []telemetry.Event) traceSummary {
	recs := make([]telemetry.SpanRecord, 0, len(events))
	for _, ev := range events {
		if rec, ok := telemetry.SpanRecordFromEvent(ev); ok {
			recs = append(recs, rec)
		}
	}
	sum := traceSummary{selfUS: map[string]int64{}, count: map[string]int{}}
	for _, tr := range telemetry.CollectTraces(recs) {
		for _, root := range tr.Roots {
			if root.Name != spanOp {
				continue
			}
			sum.addOp(root)
		}
	}
	return sum
}

// addOp folds one op's span tree into the summary.
func (s *traceSummary) addOp(root *telemetry.SpanNode) {
	s.ops++
	s.opUS += root.DurUS
	opIv := spanInterval(root)
	var program []interval
	var walk func(n, parent *telemetry.SpanNode)
	walk = func(n, parent *telemetry.SpanNode) {
		s.selfUS[n.Name] += selfTime(n)
		s.count[n.Name]++
		if !strings.HasPrefix(n.Name, "bench.") {
			program = append(program, clip(spanInterval(n), opIv))
		}
		if n.Name == jobs.SpanJobRun && parent != nil {
			if wait := n.StartUnixUS - (parent.StartUnixUS + parent.DurUS); wait > 0 {
				s.queueWaitUS += wait
			}
			s.jobs++
		}
		if n.Name == client.SpanClientRequest && isJobPoll(n.Attrs["path"]) {
			s.polls++
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(root, nil)
	s.coverUS += unionLength(program)
}

// isJobPoll reports whether a client request path is a job status poll
// (as opposed to the submission or the result fetch).
func isJobPoll(path string) bool {
	return strings.HasPrefix(path, server.PathJobs) && path != server.PathJobsCompress &&
		!strings.HasSuffix(path, server.JobResultSuffix)
}

// perOp returns the summed self time of the named spans per op, in µs.
func (s traceSummary) perOp(names ...string) float64 {
	var t int64
	for _, n := range names {
		t += s.selfUS[n]
	}
	return ratio(float64(t), float64(s.ops))
}
