package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// stepRecorder returns an events-only recorder whose sink collects the
// "event" payloads of every kind event, in emission order.
func stepRecorder[T any](kind string) (*telemetry.Recorder, *[]T) {
	got := new([]T)
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind != kind {
			return
		}
		if v, ok := ev.Field("event"); ok {
			if p, ok := v.(T); ok {
				*got = append(*got, p)
			}
		}
	}))
	return rec, got
}

// compressObserved is a cold-start observed compression with no trace
// context.
func compressObserved(stream *bitvec.Vector, cfg Config, rec *telemetry.Recorder) (*Result, error) {
	return CompressWithPreloadObservedCtx(context.Background(), stream, cfg, nil, rec)
}

// formatTraceEvent renders a TraceEvent in the tuple form used by the
// golden below, captured from the compressor's original callback API.
func formatTraceEvent(ev TraceEvent) string {
	em, ne := "-", "-"
	if ev.Emitted != nil {
		em = fmt.Sprintf("%d", *ev.Emitted)
	}
	if ev.NewEntry != nil {
		ne = fmt.Sprintf("%d=%s", ev.NewEntry.Code, ev.NewEntry.Str)
	}
	return fmt.Sprintf("{%d, %q, %q, %q, %q, %q, %q}",
		ev.Step, ev.Buffer, ev.BufferStr, ev.Input, ev.RawInput, em, ne)
}

// TestCompressTraceEventOrder pins the exact Figure 3 step sequence the
// compressor produced when steps were still delivered through a
// callback: the EventCompressStep stream must not reorder, drop, or
// alter a single step.
func TestCompressTraceEventOrder(t *testing.T) {
	want := []string{
		`{0, "0", "0", "0", "0", "-", "-"}`,
		`{1, "1", "1", "1", "1", "0", "2=01"}`,
		`{2, "0", "0", "0", "X", "1", "3=10"}`,
		`{3, "2", "01", "1", "X", "-", "-"}`,
		`{4, "1", "1", "1", "1", "2", "4=011"}`,
		`{5, "3", "10", "0", "0", "-", "-"}`,
		`{6, "0", "0", "0", "X", "3", "5=100"}`,
		`{7, "2", "01", "1", "X", "-", "-"}`,
		`{8, "0", "0", "0", "0", "2", "6=010"}`,
		`{9, "2", "01", "1", "X", "-", "-"}`,
		`{10, "4", "011", "1", "1", "-", "-"}`,
		`{11, "1", "1", "1", "1", "4", "7=0111"}`,
		`{12, "3", "10", "0", "0", "-", "-"}`,
		`{13, "5", "100", "0", "X", "-", "-"}`,
		`{14, "0", "0", "0", "0", "5", "-"}`,
		`{15, "0", "0", "0", "0", "0", "-"}`,
		`{16, "0", "0", "", "", "0", "-"}`,
	}
	stream := bitvec.MustParse("01XX10XX0X110X00")
	cfg := Config{CharBits: 1, DictSize: 8, EntryBits: 0}
	rec, steps := stepRecorder[TraceEvent](EventCompressStep)
	if _, err := compressObserved(stream, cfg, rec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range *steps {
		got = append(got, formatTraceEvent(ev))
	}
	if len(got) != len(want) {
		t.Fatalf("trace produced %d events, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// formatDecompressEvent renders a DecompressTraceEvent in the tuple
// form of the golden below.
func formatDecompressEvent(ev DecompressTraceEvent) string {
	ne := "-"
	if ev.NewEntry != nil {
		ne = fmt.Sprintf("%d=%s", ev.NewEntry.Code, ev.NewEntry.Str)
	}
	return fmt.Sprintf("{%d, %d, %q, %q, %q, %v}", ev.Step, ev.Input, ev.Buffer, ev.Output, ne, ev.Special)
}

// TestDecompressStepEventOrder pins the Figure 4 step sequence for the
// stream of TestCompressTraceEventOrder, as the decoder produced it when
// steps were still delivered through a callback: the EventDecompressStep
// stream must reproduce it exactly.
func TestDecompressStepEventOrder(t *testing.T) {
	want := []string{
		`{0, 0, "", "0", "-", false}`,
		`{1, 1, "0", "1", "2=01", false}`,
		`{2, 2, "1", "01", "3=10", false}`,
		`{3, 3, "2", "10", "4=011", false}`,
		`{4, 2, "3", "01", "5=100", false}`,
		`{5, 4, "2", "011", "6=010", false}`,
		`{6, 5, "4", "100", "7=0111", false}`,
		`{7, 0, "5", "0", "-", false}`,
		`{8, 0, "0", "0", "-", false}`,
	}
	stream := bitvec.MustParse("01XX10XX0X110X00")
	cfg := Config{CharBits: 1, DictSize: 8, EntryBits: 0}
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, steps := stepRecorder[DecompressTraceEvent](EventDecompressStep)
	if _, err := DecompressWithPreloadObservedCtx(context.Background(), res.Codes, cfg, nil, stream.Len(), rec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range *steps {
		got = append(got, formatDecompressEvent(ev))
	}
	if len(got) != len(want) {
		t.Fatalf("decode produced %d step events, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestStepEventsReachJSONLSink runs compression and decompression
// through one recorder carrying both a collecting sink and a JSONL
// sink: the JSONL sink must see every step event of both directions
// that the collecting sink sees, plus the compress.run record.
func TestStepEventsReachJSONLSink(t *testing.T) {
	stream := bitvec.MustParse("01XX10XX0X110X00")
	cfg := Config{CharBits: 1, DictSize: 8, EntryBits: 0}

	var buf bytes.Buffer
	counts := map[string]int{}
	rec := telemetry.New(nil, telemetry.NewJSONLSink(&buf),
		telemetry.SinkFunc(func(ev telemetry.Event) { counts[ev.Kind]++ }))
	res, err := compressObserved(stream, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWithPreloadObservedCtx(context.Background(), res.Codes, cfg, nil, stream.Len(), rec); err != nil {
		t.Fatal(err)
	}
	sinkSteps := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		for _, kind := range []string{EventCompressStep, EventDecompressStep} {
			if strings.Contains(line, `"kind":"`+kind+`"`) {
				sinkSteps[kind]++
			}
		}
	}
	if counts[EventCompressStep] != len(stream.String())+1 || counts[EventDecompressStep] != len(res.Codes) {
		t.Fatalf("step events %v; want one per character plus the flush, and one per code", counts)
	}
	for _, kind := range []string{EventCompressStep, EventDecompressStep} {
		if sinkSteps[kind] != counts[kind] {
			t.Fatalf("JSONL sink saw %d %s events, collecting sink saw %d", sinkSteps[kind], kind, counts[kind])
		}
	}
	if !strings.Contains(buf.String(), `"kind":"compress.run"`) {
		t.Fatalf("sink missing compress.run record:\n%s", buf.String())
	}
}

// TestCompressObservedMetrics checks the registry aggregates agree with
// the returned Stats, and that the per-code histograms saw one
// observation per emitted code.
func TestCompressObservedMetrics(t *testing.T) {
	stream := bitvec.MustParse("01XX10XX0X110X00" + "1X0X1X0X" + "00110011")
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 0}
	reg := telemetry.NewRegistry()
	rec := telemetry.New(reg)
	res, err := compressObserved(stream, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	for _, tc := range []struct {
		metric string
		want   int
	}{
		{MetricCompressRuns, 1},
		{MetricCompressEmptyRuns, 0},
		{MetricCompressInputBits, st.InputBits},
		{MetricCompressChars, st.Chars},
		{MetricCompressCodes, st.CodesEmitted},
		{MetricCompressCompressed, st.CompressedBits},
		{MetricCompressLiteralCodes, st.LiteralCodes},
		{MetricCompressStringCodes, st.StringCodes},
		{MetricCompressDictEntries, st.DictEntries},
		{MetricCompressDictResets, st.DictResets},
		{MetricCompressResidualFills, st.ResidualFills},
		{MetricCompressDynamicFills, st.DynamicFills},
	} {
		if got := reg.Counter(tc.metric, "").Value(); got != int64(tc.want) {
			t.Errorf("%s = %d, want %d", tc.metric, got, tc.want)
		}
	}
	if got := reg.Gauge(MetricCompressRatio, "").Value(); got != st.Ratio() {
		t.Errorf("ratio gauge = %v, want %v", got, st.Ratio())
	}
	for _, name := range []string{MetricCompressMatchLen, MetricCompressOccupancy} {
		if got := reg.Histogram(name, "", nil).Count(); got != int64(st.CodesEmitted) {
			t.Errorf("%s count = %d, want %d (one observation per code)", name, got, st.CodesEmitted)
		}
	}
}

// TestCompressObservedHistogramsAcrossBatches: a run that emits several
// emitBatch batches of codes, plus a partial one, still observes every
// code once, and its match lengths add up to the characters consumed.
func TestCompressObservedHistogramsAcrossBatches(t *testing.T) {
	var sb strings.Builder
	x := uint32(7)
	for i := 0; i < 4000; i++ {
		x = x*1664525 + 1013904223
		sb.WriteByte("01X"[x>>30%3])
	}
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 0}
	reg := telemetry.NewRegistry()
	res, err := compressObserved(bitvec.MustParse(sb.String()), cfg, telemetry.New(reg))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.CodesEmitted <= 2*emitBatch || st.CodesEmitted%emitBatch == 0 {
		t.Fatalf("%d codes emitted; the test needs several batches and a partial one", st.CodesEmitted)
	}
	matchLen := reg.Histogram(MetricCompressMatchLen, "", nil)
	occupancy := reg.Histogram(MetricCompressOccupancy, "", nil)
	if matchLen.Count() != int64(st.CodesEmitted) || occupancy.Count() != int64(st.CodesEmitted) {
		t.Fatalf("histogram counts %d/%d, want %d each", matchLen.Count(), occupancy.Count(), st.CodesEmitted)
	}
	if got := matchLen.Sum(); got != float64(st.Chars) {
		t.Fatalf("match-length sum = %v, want the %d characters consumed", got, st.Chars)
	}
}

// TestCompressObservedEmptyRun: zero-input runs must be explicit in
// telemetry (empty=true event field plus the empty-runs counter), not
// hidden behind Stats.Ratio's silent 0.
func TestCompressObservedEmptyRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	res, err := compressObserved(bitvec.New(0), DefaultConfig(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Empty() {
		t.Fatal("Stats.Empty() = false for zero-input run")
	}
	if res.Stats.Ratio() != 0 {
		t.Fatalf("empty Ratio = %v, want 0", res.Stats.Ratio())
	}
	if got := reg.Counter(MetricCompressEmptyRuns, "").Value(); got != 1 {
		t.Fatalf("empty-runs counter = %d, want 1", got)
	}
	var run *telemetry.Event
	for i := range events {
		if events[i].Kind == EventCompressRun {
			run = &events[i]
		}
	}
	if run == nil {
		t.Fatalf("no %s event emitted; events: %+v", EventCompressRun, events)
	}
	if v, ok := run.Field("empty"); !ok || v != true {
		t.Fatalf("compress.run empty field = %v, %v; want true", v, ok)
	}
}

// TestCompressNilRecorderMatchesObserved: the nil-recorder path must
// produce byte-identical results to an instrumented run.
func TestCompressNilRecorderMatchesObserved(t *testing.T) {
	stream := bitvec.MustParse("01XX10XX0X110X001XX0")
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 0}
	plain, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.NewRegistry(), telemetry.NewJSONLSink(&bytes.Buffer{}))
	obs, err := compressObserved(stream, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Codes) != len(obs.Codes) {
		t.Fatalf("code counts differ: %d vs %d", len(plain.Codes), len(obs.Codes))
	}
	for i := range plain.Codes {
		if plain.Codes[i] != obs.Codes[i] {
			t.Fatalf("code %d differs: %d vs %d", i, plain.Codes[i], obs.Codes[i])
		}
	}
	if plain.Stats != obs.Stats {
		t.Fatalf("stats differ:\nplain: %+v\nobs:   %+v", plain.Stats, obs.Stats)
	}
}

// TestCompressMetricsBinningMatchesObserve: the per-code bucketing —
// the match-length table and the monotone occupancy cursor — must give
// the bucket counts a per-value Observe gives, for every match length
// 0..MaxChars+1 (past the last bound, into overflow) and an occupancy
// that climbs, fills, resets and climbs again. Binning allocates
// nothing.
func TestCompressMetricsBinningMatchesObserve(t *testing.T) {
	cfg := Config{CharBits: 1, DictSize: 40, EntryBits: 130}
	reg := telemetry.NewRegistry()
	m := newCompressMetrics(telemetry.New(reg), cfg)
	ref := telemetry.NewRegistry()
	refLen := ref.Histogram("lzwtc_test_len", "", MatchLenBuckets())
	refOcc := ref.Histogram("lzwtc_test_occ", "", OccupancyBuckets())
	space := cfg.DictSize - cfg.Literals()
	used := 0
	for k := 0; k <= cfg.MaxChars()+1; k++ {
		for rep := 0; rep < 3; rep++ {
			if used++; used > space {
				used = k % 5 // FullReset, then a few adds
			}
			m.observeEmit(k, used)
			refLen.Observe(float64(k))
			refOcc.Observe(float64(used) / float64(space))
		}
	}
	m.flush()
	for _, c := range []struct {
		name string
		want *telemetry.Histogram
	}{{MetricCompressMatchLen, refLen}, {MetricCompressOccupancy, refOcc}} {
		got, want := reg.Histogram(c.name, "", nil).Snapshot(), c.want.Snapshot()
		if got.Count != want.Count {
			t.Fatalf("%s: count %d, per-value %d", c.name, got.Count, want.Count)
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("%s: bucket %d = %+v, per-value %+v", c.name, i, got.Buckets[i], want.Buckets[i])
			}
		}
	}
	if got, want := reg.Histogram(MetricCompressMatchLen, "", nil).Sum(), refLen.Sum(); got != want {
		t.Fatalf("match-length sum %v, per-value %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < emitBatch; i++ {
			m.observeEmit(i%12, i)
		}
	}); n != 0 {
		t.Fatalf("binning %d emissions allocates %v times, want 0", emitBatch, n)
	}
}
