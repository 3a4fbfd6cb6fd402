package experiments

import (
	"testing"

	"lzwtc/internal/telemetry"
)

func TestRunObservedEmitsRowEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	tbl, err := RunObserved("figure3", rec)
	if err != nil {
		t.Fatal(err)
	}
	var rows, spans int
	for _, ev := range events {
		switch ev.Kind {
		case EventRow:
			if exp, _ := ev.Field("experiment"); exp != "figure3" {
				t.Fatalf("row event experiment = %v", exp)
			}
			rows++
		case telemetry.EventTraceSpan:
			name, _ := ev.Field("name")
			exp, _ := ev.Field("experiment")
			if name == SpanExperimentRun && exp == "figure3" {
				spans++
			}
		}
	}
	if rows != len(tbl.Rows) {
		t.Fatalf("row events = %d, want %d", rows, len(tbl.Rows))
	}
	if spans != 1 {
		t.Fatalf("experiment span events = %d, want 1", spans)
	}
	if got := reg.Counter(MetricRows, "").Value(); got != int64(len(tbl.Rows)) {
		t.Fatalf("rows counter = %d, want %d", got, len(tbl.Rows))
	}
}

func TestRunObservedNilRecorder(t *testing.T) {
	plain, err := Run("figure3")
	if err != nil {
		t.Fatal(err)
	}
	obs, err := RunObserved("figure3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != obs.String() {
		t.Fatal("RunObserved(nil) differs from Run")
	}
}

func TestRunObservedUnknownName(t *testing.T) {
	if _, err := RunObserved("no-such-experiment", nil); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}
