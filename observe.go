package lzwtc

import (
	"context"

	"lzwtc/internal/ate"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
	"lzwtc/internal/telemetry"
)

// Recorder re-exports the telemetry recorder so instrumented entry
// points are usable from the public API (the same in-module aliasing as
// DownloadStats).
type Recorder = telemetry.Recorder

// CompressObservedCtx is Compress instrumented through a telemetry
// recorder and a trace context: per-code histograms into the
// recorder's registry, a compress.run event to its sinks, and, when
// ctx carries a trace span, the batch job and the core phases as child
// spans, so a request trace attributes the whole pipeline. It is the
// one-shard call of CompressShardedPreloaded, the call the service
// makes for an unsharded request; Compress calls it with a nil
// recorder.
func CompressObservedCtx(ctx context.Context, ts *TestSet, cfg Config, rec *Recorder) (*Result, error) {
	return CompressShardedPreloaded(ctx, ts, cfg, nil, 0, BatchOptions{Recorder: rec})
}

// SimulateDownloadObserved is SimulateDownload instrumented through a
// telemetry recorder: the decompressor model charges cycles, memory
// reads and load stalls to individual scan patterns (decomp.pattern
// events) and folds its run totals into the recorder's registry. A nil
// recorder reduces to SimulateDownload.
func SimulateDownloadObserved(r *Result, clockRatio int, rec *Recorder) (*TestSet, *DownloadStats, float64, error) {
	if err := r.needsNoDict(); err != nil {
		return nil, nil, 0, err
	}
	sh, err := r.oneStream()
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := r.Cfg
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	shared.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, clockRatio, shared)
	if err != nil {
		return nil, nil, 0, err
	}
	hw.SetRecorder(rec)
	// Pattern boundaries in the scan stream fall on the aligned width
	// (each pattern is padded to a character boundary).
	hw.SetPatternBits(cfg.PaddedWidth(r.Width))
	stream, stats, err := hw.Run(sh.Pack(), len(sh.Codes), sh.InputBits)
	if err != nil {
		return nil, nil, 0, err
	}
	ts, err := DecompressedSetFromStream(stream, r)
	if err != nil {
		return nil, nil, 0, err
	}
	return ts, stats, ate.Improvement(r.OriginalBits, stats.TesterCycles), nil
}
