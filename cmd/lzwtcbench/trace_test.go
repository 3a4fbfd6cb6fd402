package main

import (
	"bytes"
	"testing"

	"lzwtc/internal/telemetry"
)

func TestUnionLength(t *testing.T) {
	cases := []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{0, 10}, {20, 25}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}}, 100},
		{"adjacent", []interval{{0, 10}, {10, 20}}, 20},
		{"unsorted", []interval{{50, 60}, {0, 10}, {5, 12}}, 22},
		{"empty intervals ignored", []interval{{5, 5}, {7, 3}, {0, 1}}, 1},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("%s: unionLength = %d, want %d", c.name, got, c.want)
		}
	}
}

// node builds a span tree node covering [start, start+dur).
func node(name string, start, dur int64, children ...*telemetry.SpanNode) *telemetry.SpanNode {
	return &telemetry.SpanNode{
		SpanRecord: telemetry.SpanRecord{Name: name, StartUnixUS: start, DurUS: dur},
		Children:   children,
	}
}

func TestSelfTimeClipsChildren(t *testing.T) {
	cases := []struct {
		name     string
		n        *telemetry.SpanNode
		want     int64
		wantNode int64 // telemetry.SpanNode.Self, for contrast
	}{
		{
			// The job outlives the request that admitted it: whole-child
			// subtraction reads 0, clipping charges the submit its 90 µs.
			name:     "async child outlives parent",
			n:        node("server.job.submit", 0, 100, node("job.run", 90, 910)),
			want:     90,
			wantNode: 0,
		},
		{
			name:     "parallel children counted once",
			n:        node("job.run", 0, 100, node("batch.job", 10, 50), node("batch.job", 20, 50)),
			want:     40,
			wantNode: 0,
		},
		{
			name:     "sequential children",
			n:        node("server.compress", 0, 100, node("batch.job", 10, 30), node("wire.encode", 50, 20)),
			want:     50,
			wantNode: 50,
		},
		{
			name:     "child starting before the parent",
			n:        node("client.request", 100, 50, node("server.compress", 90, 30)),
			want:     30,
			wantNode: 20,
		},
		{name: "leaf", n: node("core.decode", 5, 42), want: 42, wantNode: 42},
	}
	for _, c := range cases {
		if got := selfTime(c.n); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
		if got := c.n.Self(); got != c.wantNode {
			t.Errorf("%s: SpanNode.Self = %d, want %d", c.name, got, c.wantNode)
		}
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	root := node(spanOp, 0, 1000,
		node(spanCompress, 0, 400,
			node("client.request", 10, 380,
				node("server.compress", 20, 360,
					node("batch.job", 30, 270,
						node("core.serialize", 30, 70),
						node("core.dict_build", 100, 5),
						node("core.match_loop", 105, 185)),
					node("wire.encode", 300, 70)))),
		node(spanDecompress, 400, 600,
			node("client.request", 410, 580,
				node("server.decompress", 420, 560,
					node("wire.decode", 430, 270,
						node("core.decode", 440, 250))))))
	var sum int64
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		sum += selfTime(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if sum != root.DurUS {
		t.Errorf("self times sum to %d µs, root lasted %d µs", sum, root.DurUS)
	}
}

// spanEvent builds the event TraceSpan.End emits.
func spanEvent(trace, id, parent, name string, start, dur int64, attrs ...telemetry.Field) telemetry.Event {
	fields := []telemetry.Field{telemetry.F("trace_id", trace), telemetry.F("span_id", id)}
	if parent != "" {
		fields = append(fields, telemetry.F("parent_id", parent))
	}
	fields = append(fields, telemetry.F("name", name),
		telemetry.F("start_unix_us", start), telemetry.F("dur_us", dur))
	return telemetry.Event{Kind: telemetry.EventTraceSpan, Fields: append(fields, attrs...)}
}

// asyncOpEvents is one bulk_async-shaped op: submit, a job that starts
// 15 µs after its submission span ends, two status polls, the result
// fetch and a decompress; plus one unrelated trace that is not an op.
func asyncOpEvents() []telemetry.Event {
	path := func(p string) telemetry.Field { return telemetry.F("path", p) }
	return []telemetry.Event{
		spanEvent("t1", "s4", "s3", "server.job.submit", 5, 40),
		spanEvent("t1", "s3", "s2", "client.request", 0, 50, path("/v1/jobs/compress")),
		spanEvent("t1", "s7", "s2", "client.request", 100, 10, path("/v1/jobs/abc")),
		spanEvent("t1", "s8", "s2", "client.request", 300, 10, path("/v1/jobs/abc")),
		spanEvent("t1", "s6", "s5", "batch.job", 70, 410),
		spanEvent("t1", "s5", "s4", "job.run", 60, 440),
		spanEvent("t1", "s9", "s2", "client.request", 510, 10, path("/v1/jobs/abc/result")),
		spanEvent("t1", "s2", "s1", spanCompress, 0, 600),
		spanEvent("t1", "s11", "s10", "client.request", 600, 390, path("/v1/decompress")),
		spanEvent("t1", "s10", "s1", spanDecompress, 600, 400),
		spanEvent("t1", "s1", "", spanOp, 0, 1000),
		spanEvent("t2", "x1", "", "server.compress", 0, 500),
	}
}

func TestSummarizeAsyncOp(t *testing.T) {
	s := summarize(asyncOpEvents())
	if s.ops != 1 || s.opUS != 1000 {
		t.Fatalf("ops = %d over %d µs, want 1 over 1000", s.ops, s.opUS)
	}
	if s.jobs != 1 || s.queueWaitUS != 15 {
		t.Errorf("jobs = %d, queue wait %d µs; want 1 and 15", s.jobs, s.queueWaitUS)
	}
	if s.polls != 2 {
		t.Errorf("polls = %d, want 2", s.polls)
	}
	// Program spans cover [0,50) [60,500) [510,520) [600,990).
	if s.coverUS != 890 {
		t.Errorf("covered %d µs, want 890", s.coverUS)
	}
	want := map[string]int64{
		"server.job.submit": 40, // job.run starts after it ends
		"job.run":           30, // 440 minus batch.job's 410
		// submit 50-40, two polls and the result fetch 10 each, decompress 390
		"client.request": 430,
		spanCompress:     520, // 600 minus the 80 µs its requests cover: the poll sleeps
		spanDecompress:   10,
		spanOp:           0,
	}
	for name, us := range want {
		if got := s.selfUS[name]; got != us {
			t.Errorf("self time of %s = %d µs, want %d", name, got, us)
		}
	}
	if s.count["server.compress"] != 0 {
		t.Error("a trace not rooted at an op was counted")
	}
}

func TestSpanSinkKeepsSpansOnlyWhileOn(t *testing.T) {
	var sink spanSink
	if sink.WantsSteps() {
		t.Fatal("the sink must not ask for per-step events")
	}
	events := asyncOpEvents()
	sink.Emit(events[0])
	sink.on.Store(true)
	sink.Emit(telemetry.Event{Kind: "compress.run"})
	for _, ev := range events {
		sink.Emit(ev)
	}
	if got := len(sink.snapshot()); got != len(events) {
		t.Fatalf("sink kept %d events, want %d", got, len(events))
	}

	// The JSONL it writes is what `lzwtc trace` reads.
	var buf bytes.Buffer
	if err := sink.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(events) {
		t.Fatalf("read back %d spans, want %d", len(recs), len(events))
	}
	if recs[1].Name != "client.request" || recs[1].Attrs["path"] != "/v1/jobs/compress" || recs[1].DurUS != 50 {
		t.Errorf("span read back as %+v", recs[1])
	}
}
