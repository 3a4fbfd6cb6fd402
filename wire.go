package lzwtc

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
	"lzwtc/internal/slab"
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
	// ErrWireLimit reports a length field beyond the format's bounds, or
	// a frame whose input length its patterns or codes cannot fill.
	ErrWireLimit = wire.ErrLimit
	// ErrWireConfig reports a header whose configuration is invalid: an
	// unknown policy, or a Config that fails Validate.
	ErrWireConfig = wire.ErrConfig
)

// Trace span names for wire-container framing. Decompress records
// SpanWireDecode; a caller that streams a container out records
// SpanWireEncode around WriteWire.
const (
	SpanWireEncode = "wire.encode" // frame + CRC a container
	SpanWireDecode = "wire.decode" // parse + verify + decompress a container
)

// WriteWire streams a Result to w in the versioned wire format: a
// CRC-protected header carrying the full Config and pattern width, a
// 'D' frame exactly when r.Dict is set, one data frame per shard in
// order, and an explicit EOS frame. The output is tamper-evident
// (per-region CRC32C) and truncation-evident (missing EOS). Each data
// frame is independently decompressible (a frame boundary is a
// FullReset), so a streaming reader can decompress shard by shard in
// constant memory.
func (r *Result) WriteWire(w io.Writer) error { return writeWire(w, r, r.Dict) }

// writeWire is the one container writer: r's shards behind a 'D' frame
// naming ref when ref is set.
func writeWire(w io.Writer, r *Result, ref *DictRef) error {
	ww, err := wire.NewWriter(w, wire.Header{Cfg: r.Cfg, Width: r.Width})
	if err != nil {
		return err
	}
	if ref != nil {
		if err := ww.WriteDictRef(*ref); err != nil {
			return err
		}
	}
	for i, sh := range r.Shards {
		if err := ww.WriteResult(sh, r.ShardPatterns[i]); err != nil {
			return err
		}
	}
	return ww.Close()
}

// DecodeWireResult parses a wire container back into a Result, one
// shard per data frame. A frame carries its codes, input length and
// pattern count, so the Result's statistics hold the code counts and
// compressed volume but none of the compressor's match or fill counts.
// A 'D' frame's reference lands in Result.Dict, which
// Result.Decompress resolves through Options.Resolver.
func DecodeWireResult(data []byte) (*Result, error) {
	wr, err := wire.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hdr := wr.Header()
	out := &Result{Cfg: hdr.Cfg, Width: hdr.Width}
	for {
		f, err := wr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Shards = append(out.Shards, frameShard(hdr.Cfg, f))
		out.ShardPatterns = append(out.ShardPatterns, f.Patterns)
		out.Patterns += f.Patterns
	}
	out.OriginalBits = hdr.Width * out.Patterns
	if ref, ok := wr.DictRef(); ok {
		out.Dict = &ref
	}
	return out, nil
}

// frameShard is the shard a data frame carries, with the statistics the
// frame determines: input bits, code count and compressed volume.
func frameShard(cfg Config, f *wire.Frame) *core.Result {
	sh := &core.Result{Cfg: cfg, Codes: f.Codes, InputBits: f.InputBits}
	sh.Stats.InputBits = f.InputBits
	sh.Stats.CodesEmitted = len(f.Codes)
	sh.Stats.CompressedBits = len(f.Codes) * cfg.CodeBits()
	return sh
}

// Decompress streams any wire container — single-frame or sharded —
// into the fully specified test set, decompressing frame by frame
// under a SpanWireDecode span (each frame a nested core.decode span).
// The whole container is verified: a corrupt or truncated stream
// returns a typed error before (or instead of) partial output. A
// container naming a shared dictionary resolves it through
// opts.Resolver once, before its first data frame, and fails with
// ErrDictNotFound when there is no resolver. The returned set owns the
// memory of every frame's cubes; a caller done with it may hand that
// back with TestSet.Release.
func Decompress(ctx context.Context, r io.Reader, opts Options) (*TestSet, error) {
	wctx, sp := opts.Recorder.StartSpan(ctx, SpanWireDecode)
	out, frames, err := decompressWire(wctx, r, opts)
	sp.End(telemetry.F("frames", frames), telemetry.F("ok", err == nil))
	return out, err
}

// decompressWire is the one wire decode loop. Each frame's codes go
// back to the slab pool once the frame is decoded, and on an error the
// cubes decoded so far are released.
func decompressWire(ctx context.Context, r io.Reader, opts Options) (_ *TestSet, _ int, err error) {
	wr, err := wire.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	hdr := wr.Header()
	out := NewTestSet(hdr.Width)
	defer func() {
		if err != nil {
			out.Release()
		}
	}()
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
			if pre, err = resolveDict(ctx, &ref, opts.Resolver); err != nil {
				return nil, wr.Frames(), err
			}
		}
		// A nil preload is a cold start.
		group, err := parallel.DecodeShard(ctx, frameShard(hdr.Cfg, f), hdr.Width, f.Patterns, pre, opts.Recorder)
		slab.Put(f.Codes)
		if err != nil {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d: %w", wr.Frames()-1, err)
		}
		bitvec.AppendSet(out, group)
	}
	return out, wr.Frames(), nil
}
