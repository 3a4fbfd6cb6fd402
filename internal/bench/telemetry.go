package bench

import (
	"context"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// EventProfile is the per-profile record GenerateObserved emits: the
// circuit's Table 3 parameters plus the generated set's actual X
// density, so drift between the published density and the synthetic
// set is visible in the event stream.
const EventProfile = "bench.profile"

// Registry metric names for workload generation.
const (
	MetricCubeSets      = "lzwtc_bench_cubesets_total"
	MetricGeneratedBits = "lzwtc_bench_generated_bits_total"
)

// spanGenerate is the trace span GenerateObserved runs under.
const spanGenerate = "bench.generate"

// GenerateObserved is Generate instrumented through a telemetry
// recorder: the generation runs under a spanGenerate trace span and
// emits one EventProfile record. A nil recorder reduces to Generate.
func (p Profile) GenerateObserved(rec *telemetry.Recorder) *bitvec.CubeSet {
	_, sp := rec.StartSpan(context.Background(), spanGenerate)
	cs := p.Generate()
	if reg := rec.Registry(); reg != nil {
		reg.Counter(MetricCubeSets, "benchmark cube sets generated").Inc()
		reg.Counter(MetricGeneratedBits, "benchmark scan bits generated").Add(int64(p.TotalBits()))
	}
	rec.Emit(EventProfile,
		telemetry.F("circuit", p.Name),
		telemetry.F("suite", p.Suite),
		telemetry.F("scan_len", p.ScanLen),
		telemetry.F("patterns", p.Patterns),
		telemetry.F("total_bits", p.TotalBits()),
		telemetry.F("x_density_target", p.XDensity),
		telemetry.F("x_density_actual", cs.XDensity()),
		telemetry.F("dict_size", p.DictSize),
	)
	sp.End(telemetry.F("circuit", p.Name))
	return cs
}
