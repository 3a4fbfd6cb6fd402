package lzwtc

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// Wire-format typed errors, re-exported for callers that never import
// internal packages. Test with errors.Is.
var (
	ErrWireBadMagic  = wire.ErrBadMagic
	ErrWireVersion   = wire.ErrVersion
	ErrWireChecksum  = wire.ErrChecksum
	ErrWireTruncated = wire.ErrTruncated
)

// Trace span names for wire-container framing, recorded by the
// *Observed wire entry points.
const (
	SpanWireEncode = "wire.encode" // frame + CRC a container
	SpanWireDecode = "wire.decode" // parse + verify + decompress a container
)

// writeWire is the one container writer behind every WriteWire entry
// point: the CRC-protected header carrying the full Config and pattern
// width, a 'D' frame exactly when ref is non-nil, one data frame per
// shard in order, and the explicit EOS frame.
func writeWire(w io.Writer, cfg Config, width int, shards []*core.Result, patterns []int, ref *DictRef) error {
	ww, err := wire.NewWriter(w, wire.Header{Cfg: cfg, Width: width})
	if err != nil {
		return err
	}
	if ref != nil {
		if err := ww.WriteDictRef(*ref); err != nil {
			return err
		}
	}
	for i, sh := range shards {
		if err := ww.WriteResult(sh, patterns[i]); err != nil {
			return err
		}
	}
	return ww.Close()
}

// WriteWire streams a Result to w in the versioned wire format: a
// CRC-protected header carrying the full Config and pattern width, a
// 'D' frame when r.Dict is set, one data frame with the code stream,
// and an explicit EOS frame. The
// output is tamper-evident (per-region CRC32C) and truncation-evident
// (missing EOS).
func (r *Result) WriteWire(w io.Writer) error {
	return writeWire(w, r.Stream.Cfg, r.Width, []*core.Result{r.Stream}, []int{r.Patterns}, r.Dict)
}

// WriteWireObserved is WriteWire wrapped in a SpanWireEncode trace
// span: when ctx carries a span and rec has sinks, the container
// framing (header, CRC, frame writes) is attributed in the request
// trace. A nil recorder reduces to WriteWire.
func (r *Result) WriteWireObserved(ctx context.Context, w io.Writer, rec *Recorder) error {
	_, sp := rec.StartSpan(ctx, SpanWireEncode)
	err := r.WriteWire(w)
	sp.End(telemetry.F("frames", 1), telemetry.F("ok", err == nil))
	return err
}

// EncodeWire renders the Result as one in-memory wire container.
func (r *Result) EncodeWire() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteWire(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteWireSharded streams a sharded compression as one container with
// a frame per shard. Each frame is independently decompressible (a
// frame boundary is a FullReset), so a streaming reader can decompress
// shard by shard in constant memory.
func WriteWireSharded(w io.Writer, s *ShardedResult) error {
	return writeWire(w, s.Cfg, s.Width, s.Shards, s.ShardPatterns, nil)
}

// DecodeWireResult parses a single-frame wire container back into a
// Result. Multi-frame (sharded) containers are rejected — their frames
// have independent dictionary states and cannot merge into one code
// stream; use DecompressWire for those. A 'D' frame's reference lands
// in Result.Dict; the Result carries no preload, so such a container
// decompresses through DecompressWireDict.
func DecodeWireResult(data []byte) (*Result, error) {
	wr, err := wire.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hdr := wr.Header()
	f, err := wr.ReadFrame()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("lzwtc: wire container has no data frames")
		}
		return nil, err
	}
	if _, err := wr.ReadFrame(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("lzwtc: wire container has multiple frames; use DecompressWire")
		}
		return nil, err
	}
	res := &core.Result{Cfg: hdr.Cfg, Codes: f.Codes, InputBits: f.InputBits}
	res.Stats.InputBits = f.InputBits
	res.Stats.CodesEmitted = len(f.Codes)
	res.Stats.CompressedBits = len(f.Codes) * hdr.Cfg.CodeBits()
	out := &Result{
		Stream:       res,
		Width:        hdr.Width,
		OriginalBits: hdr.Width * f.Patterns,
		Patterns:     f.Patterns,
	}
	if ref, ok := wr.DictRef(); ok {
		out.Dict = &ref
	}
	return out, nil
}

// DecompressWire streams any wire container — single-frame or sharded —
// into the fully specified test set, decompressing frame by frame. The
// whole container is verified: a corrupt or truncated stream returns a
// typed error before (or instead of) partial output, and a container
// naming a shared dictionary fails with ErrDictNotFound (decompress it
// through DecompressWireDict).
func DecompressWire(r io.Reader) (*TestSet, error) {
	return DecompressWireDictObserved(context.Background(), r, nil, nil)
}

// DecompressWireObserved is DecompressWire instrumented for request
// tracing: the whole container parse runs under a SpanWireDecode span
// and each frame's software decompression is a nested core.decode
// span, so sharded downloads show per-frame cost. A nil recorder
// reduces to DecompressWire.
func DecompressWireObserved(ctx context.Context, r io.Reader, rec *Recorder) (*TestSet, error) {
	return DecompressWireDictObserved(ctx, r, nil, rec)
}

// DecompressWireDict is DecompressWire for containers that may carry a
// dictionary reference: when a 'D' frame is present the resolver is
// asked for the preload (nil resolver → ErrDictNotFound) and every
// frame decompresses with it installed; plain containers decompress
// cold.
func DecompressWireDict(r io.Reader, res DictResolver) (*TestSet, error) {
	return DecompressWireDictObserved(context.Background(), r, res, nil)
}

// DecompressWireDictObserved is DecompressWireDict under a
// SpanWireDecode trace span (the store's own dict.resolve span nests
// inside it when the resolver is a *DictStore). Every DecompressWire
// entry point runs through it.
func DecompressWireDictObserved(ctx context.Context, r io.Reader, res DictResolver, rec *Recorder) (*TestSet, error) {
	wctx, sp := rec.StartSpan(ctx, SpanWireDecode)
	out, frames, err := decompressWireDict(wctx, r, res, rec)
	sp.End(telemetry.F("frames", frames), telemetry.F("ok", err == nil))
	return out, err
}

// decompressWireDict is the one wire decode loop.
func decompressWireDict(ctx context.Context, r io.Reader, res DictResolver, rec *Recorder) (*TestSet, int, error) {
	wr, err := wire.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	hdr := wr.Header()
	out := NewTestSet(hdr.Width)
	var pre *Preload
	for {
		f, err := wr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, wr.Frames(), err
		}
		// The 'D' frame precedes all data frames, so the reference is
		// final by the time the first data frame arrives.
		if ref, ok := wr.DictRef(); ok && pre == nil {
			if res == nil {
				return nil, wr.Frames(), fmt.Errorf("lzwtc: container references dictionary %x but no resolver given: %w",
					ref.Key, ErrDictNotFound)
			}
			if pre, err = res.ResolveDict(ctx, ref); err != nil {
				return nil, wr.Frames(), fmt.Errorf("lzwtc: resolving container dictionary: %w", err)
			}
		}
		// A nil preload is a cold start.
		stream, err := core.DecompressWithPreloadObservedCtx(ctx, f.Codes, hdr.Cfg, pre, f.InputBits, rec)
		if err != nil {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d: %w", wr.Frames()-1, err)
		}
		group, err := bitvec.DeserializeAligned(stream, hdr.Width, hdr.Cfg.CharBits)
		if err != nil {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d: %w", wr.Frames()-1, err)
		}
		if len(group.Cubes) != f.Patterns {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d decompressed to %d patterns, want %d",
				wr.Frames()-1, len(group.Cubes), f.Patterns)
		}
		out.Cubes = append(out.Cubes, group.Cubes...)
	}
	return out, wr.Frames(), nil
}
