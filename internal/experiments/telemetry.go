package experiments

import (
	"context"

	"lzwtc/internal/report"
	"lzwtc/internal/telemetry"
)

// EventRow is the per-row record RunObserved emits: one per table row,
// which for every experiment here means one per circuit.
const EventRow = "experiment.row"

// MetricRows counts table rows produced across all observed experiment
// runs.
const MetricRows = "lzwtc_experiment_rows_total"

// SpanExperimentRun is the span every observed experiment runs under;
// the experiment's name travels as an "experiment" field rather than in
// the span name, so the phase histogram stays one bounded series.
const SpanExperimentRun = "experiment.run"

// RunObserved is Run instrumented through a telemetry recorder: the
// whole experiment runs under a SpanExperimentRun span, and each
// produced row is emitted as an EventRow record keyed by the table's
// column headers. A nil recorder reduces to Run.
func RunObserved(name string, rec *telemetry.Recorder) (*report.Table, error) {
	return RunObservedCtx(context.Background(), name, 0, rec)
}

// RunObservedCtx is RunObserved with context cancellation and a worker
// bound for the pool-backed sweep tables (workers <= 0 means
// GOMAXPROCS).
func RunObservedCtx(ctx context.Context, name string, workers int, rec *telemetry.Recorder) (*report.Table, error) {
	ctx, sp := rec.StartSpan(ctx, SpanExperimentRun)
	t, err := RunCtx(ctx, name, workers)
	if err != nil {
		sp.End(telemetry.F("experiment", name), telemetry.F("error", err.Error()))
		return nil, err
	}
	if reg := rec.Registry(); reg != nil {
		reg.Counter(MetricRows, "experiment table rows produced").Add(int64(len(t.Rows)))
	}
	for _, row := range t.Rows {
		fields := make([]telemetry.Field, 0, len(row)+1)
		fields = append(fields, telemetry.F("experiment", name))
		for i, cell := range row {
			key := "col"
			if i < len(t.Headers) {
				key = t.Headers[i]
			}
			fields = append(fields, telemetry.F(key, cell))
		}
		rec.Emit(EventRow, fields...)
	}
	sp.End(telemetry.F("experiment", name), telemetry.F("rows", len(t.Rows)))
	return t, nil
}
