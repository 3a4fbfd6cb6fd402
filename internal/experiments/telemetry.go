package experiments

import (
	"context"

	"lzwtc/internal/report"
	"lzwtc/internal/telemetry"
)

// eventRow is the per-row record RunObservedCtx emits: one per table row,
// which for every experiment here means one per circuit.
const eventRow = "experiment.row"

// metricRows counts table rows produced across all observed experiment
// runs.
const metricRows = "lzwtc_experiment_rows_total"

// spanExperimentRun is the span every observed experiment runs under;
// the experiment's name travels as an "experiment" field rather than in
// the span name, so the phase histogram stays one bounded series.
const spanExperimentRun = "experiment.run"

// RunObservedCtx runs the named experiment instrumented through a
// telemetry recorder: the whole experiment runs under a
// spanExperimentRun span, and each produced row is emitted as an
// eventRow record keyed by the table's column headers. ctx cancels the
// run, and workers bounds the pool-backed sweep tables (workers <= 0
// means GOMAXPROCS). A nil recorder reduces to the plain run.
func RunObservedCtx(ctx context.Context, name string, workers int, rec *telemetry.Recorder) (*report.Table, error) {
	ctx, sp := rec.StartSpan(ctx, spanExperimentRun)
	t, err := runCtx(ctx, name, workers)
	if err != nil {
		sp.End(telemetry.F("experiment", name), telemetry.F("error", err.Error()))
		return nil, err
	}
	if reg := rec.Registry(); reg != nil {
		reg.Counter(metricRows, "experiment table rows produced").Add(int64(len(t.Rows)))
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
		rec.Emit(eventRow, fields...)
	}
	sp.End(telemetry.F("experiment", name), telemetry.F("rows", len(t.Rows)))
	return t, nil
}
