package lzwtc

import (
	"context"
	"io"

	"lzwtc/internal/telemetry"
)

// The forms below predate Compress, Decompress and Result.Decompress;
// the benchmark module still compiles against them. ROADMAP item 3
// step 2 moves it to the new pair and deletes this file.

// Deprecated: use Result; removed with ROADMAP item 3 step 2.
type ShardedResult = Result

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func CompressObservedCtx(ctx context.Context, ts *TestSet, cfg Config, rec *Recorder) (*Result, error) {
	return compress(ctx, ts, cfg, nil, nil, 0, BatchOptions{Recorder: rec})
}

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func CompressSharded(ctx context.Context, ts *TestSet, cfg Config, patternsPerShard int, opts BatchOptions) (*Result, error) {
	return compress(ctx, ts, cfg, nil, nil, patternsPerShard, opts)
}

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func CompressShardedPreloaded(ctx context.Context, ts *TestSet, cfg Config, pre *Preload, patternsPerShard int, opts BatchOptions) (*Result, error) {
	return compress(ctx, ts, cfg, pre, nil, patternsPerShard, opts)
}

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func (r *Result) WriteWireObserved(ctx context.Context, w io.Writer, rec *Recorder) error {
	_, sp := rec.StartSpan(ctx, SpanWireEncode)
	err := r.WriteWire(w)
	sp.End(telemetry.F("frames", len(r.Shards)), telemetry.F("ok", err == nil))
	return err
}

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func WriteWireSharded(w io.Writer, s *Result) error { return s.WriteWire(w) }

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func WriteWireDict(w io.Writer, s *Result, ref DictRef) error { return writeWire(w, s, &ref) }

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func DecompressWireObserved(ctx context.Context, r io.Reader, rec *Recorder) (*TestSet, error) {
	return Decompress(ctx, r, Options{Recorder: rec})
}

// Deprecated: use Compress/Decompress; removed with ROADMAP item 3 step 2.
func DecompressWireDict(r io.Reader, res DictResolver) (*TestSet, error) {
	return Decompress(context.Background(), r, Options{Resolver: res})
}
