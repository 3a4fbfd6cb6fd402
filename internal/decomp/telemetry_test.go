package decomp

import (
	"math/rand"
	"testing"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

func TestRunRecordsTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := core.Config{CharBits: 7, DictSize: 512, EntryBits: 63}
	const width, patterns = 700, 12
	stream := randomCube(rng, width*patterns, 0.85)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	d, _ := build(t, cfg, 8)
	d.SetRecorder(rec)
	d.SetPatternBits(width)
	_, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		metric string
		want   int
	}{
		{metricRuns, 1},
		{metricEmptyRuns, 0},
		{metricInternalCycles, st.InternalCycles},
		{metricTesterCycles, st.TesterCycles},
		{metricLoadStalls, st.LoadStalls},
		{metricDecodeCycles, st.DecodeCycles},
		{metricWriteCycles, st.WriteCycles},
		{metricShiftCycles, st.ShiftCycles},
		{metricMemReads, st.MemReads},
		{metricMemWrites, st.MemWrites},
		{metricCodesDecoded, st.CodesDecoded},
		{metricOutputBits, st.OutputBits},
	} {
		if got := reg.Counter(tc.metric, "").Value(); got != int64(tc.want) {
			t.Errorf("%s = %d, want %d", tc.metric, got, tc.want)
		}
	}
	if got := reg.Gauge(metricUtilization, "").Value(); got != st.Utilization() {
		t.Errorf("utilization gauge = %v, want %v", got, st.Utilization())
	}
	if st.Utilization() <= 0 || st.Utilization() > 1 {
		t.Errorf("utilization = %v, want in (0,1]", st.Utilization())
	}

	// Per-pattern records: every full pattern accounted, cycles summing
	// to no more than the run total, memory reads conserved.
	var patternEvents, cycleSum, readSum int
	var runSeen bool
	for _, ev := range events {
		switch ev.Kind {
		case eventPattern:
			if idx, _ := ev.Field("index"); idx != patternEvents {
				t.Fatalf("pattern events out of order: got index %v at position %d", idx, patternEvents)
			}
			c, _ := ev.Field("internal_cycles")
			cycleSum += c.(int)
			r, _ := ev.Field("mem_reads")
			readSum += r.(int)
			patternEvents++
		case eventRun:
			runSeen = true
			if empty, _ := ev.Field("empty"); empty != false {
				t.Fatalf("run record empty = %v, want false", empty)
			}
		}
	}
	if patternEvents != patterns {
		t.Fatalf("pattern events = %d, want %d", patternEvents, patterns)
	}
	if !runSeen {
		t.Fatal("no decomp.run record emitted")
	}
	if cycleSum > st.InternalCycles {
		t.Fatalf("per-pattern cycles %d exceed run total %d", cycleSum, st.InternalCycles)
	}
	if readSum > st.MemReads {
		t.Fatalf("per-pattern reads %d exceed run total %d", readSum, st.MemReads)
	}
	if h := reg.Histogram(metricPatternCycles, "", nil); h.Count() != int64(patterns) {
		t.Fatalf("pattern-cycles histogram count = %d, want %d", h.Count(), patterns)
	}
}

func TestRunEmptyTelemetry(t *testing.T) {
	cfg := core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	d, _ := build(t, cfg, 4)
	d.SetRecorder(rec)
	_, st, err := d.Run(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Fatal("Stats.Empty() = false for zero-input run")
	}
	if st.Utilization() != 0 {
		t.Fatalf("empty Utilization = %v, want 0", st.Utilization())
	}
	if got := reg.Counter(metricEmptyRuns, "").Value(); got != 1 {
		t.Fatalf("empty-runs counter = %d, want 1", got)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == eventRun {
			found = true
			if empty, ok := ev.Field("empty"); !ok || empty != true {
				t.Fatalf("run record empty field = %v, %v; want true", empty, ok)
			}
		}
	}
	if !found {
		t.Fatal("no decomp.run record emitted for empty run")
	}
}

func TestRunNilRecorderUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := core.Config{CharBits: 7, DictSize: 512, EntryBits: 63}
	stream := randomCube(rng, 5000, 0.85)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := build(t, cfg, 8)
	outPlain, stPlain, err := plain.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := build(t, cfg, 8)
	obs.SetRecorder(telemetry.New(telemetry.NewRegistry()))
	obs.SetPatternBits(500)
	outObs, stObs, err := obs.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !outPlain.Equal(outObs) {
		t.Fatal("instrumented run produced different output")
	}
	if *stPlain != *stObs {
		t.Fatalf("instrumented run changed stats:\nplain: %+v\nobs:   %+v", *stPlain, *stObs)
	}
}

// TestRunUntracedAllocsPerCode: with no recorder, Run renders no step
// details, so decoding a 40 kbit stream of 1456 codes (C_C=7, N=1024,
// clock ratio 8) makes fewer than 2 allocations per code. Formatting
// the five per-step strings for every code, traced or not, made 6.5.
func TestRunUntracedAllocsPerCode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := core.Config{CharBits: 7, DictSize: 1024, EntryBits: 63}
	stream := randomCube(rng, 40000, 0.9)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packed := res.Pack()
	allocs := testing.AllocsPerRun(5, func() {
		d, _ := build(t, cfg, 8)
		if _, _, err := d.Run(packed, len(res.Codes), stream.Len()); err != nil {
			t.Fatal(err)
		}
	})
	if perCode := allocs / float64(len(res.Codes)); perCode >= 2 {
		t.Fatalf("untraced Run: %.0f allocs for %d codes (%.2f per code), want < 2 per code",
			allocs, len(res.Codes), perCode)
	}
}

// TestRunStepEventsOnlyWhenTracing: a recorder whose sinks all opt out
// of step events gets the run record but no EventStep, and a tracing
// one gets at least one step per decoded code.
func TestRunStepEventsOnlyWhenTracing(t *testing.T) {
	cfg := core.Config{CharBits: 1, DictSize: 16, EntryBits: 8}
	stream := randomCube(rand.New(rand.NewSource(3)), 64, 0.5)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantSteps := range []bool{false, true} {
		counts := map[string]int{}
		var sink telemetry.Sink = telemetry.SinkFunc(func(ev telemetry.Event) { counts[ev.Kind]++ })
		if !wantSteps {
			sink = stepless{sink}
		}
		d, _ := build(t, cfg, 4)
		d.SetRecorder(telemetry.New(nil, sink))
		if _, _, err := d.Run(res.Pack(), len(res.Codes), stream.Len()); err != nil {
			t.Fatal(err)
		}
		if counts[eventRun] != 1 {
			t.Fatalf("tracing=%v: %d run records, want 1", wantSteps, counts[eventRun])
		}
		if got := counts[EventStep]; wantSteps && got < len(res.Codes) || !wantSteps && got != 0 {
			t.Fatalf("tracing=%v: %d step events for %d codes", wantSteps, got, len(res.Codes))
		}
	}
}

// stepless wraps a sink so it opts out of per-step events.
type stepless struct{ telemetry.Sink }

func (stepless) WantsSteps() bool { return false }
