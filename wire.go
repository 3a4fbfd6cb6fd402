package lzwtc

import (
	"context"
	"io"

	"lzwtc/internal/core"
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
// FullReset). Decompress verifies the whole container before it
// decodes any frame; a wire.Reader still reads it frame by frame.
func (r *Result) WriteWire(w io.Writer) error { return writeWire(w, r, r.Dict) }

// writeWire is the one container writer: r's shards behind a 'D' frame
// naming ref when ref is set.
func writeWire(w io.Writer, r *Result, ref *DictRef) error {
	if err := r.checkShards(); err != nil {
		return err
	}
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

// DecodeWireResult reads a whole wire container into a Result, one
// shard per data frame. Every region is verified before it returns, so
// a corrupt or truncated container fails with a typed error and no
// Result. A frame carries its codes, input length and pattern count,
// so the Result's statistics hold the code counts and compressed
// volume but none of the compressor's match or fill counts. A 'D'
// frame's reference lands in Result.Dict, which Result.Decompress
// resolves through Options.Resolver.
func DecodeWireResult(r io.Reader) (*Result, error) {
	// A wrapper small enough to inline: a caller that keeps the Result
	// to itself, as Decompress does, holds it on its stack.
	out := new(Result)
	if err := out.readWire(r); err != nil {
		return nil, err
	}
	return out, nil
}

// readWire is DecodeWireResult into out. On an error the codes read so
// far go back to the slab pool.
func (out *Result) readWire(r io.Reader) (err error) {
	wr, err := wire.NewReader(r)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			putCodes(out)
		}
	}()
	hdr := wr.Header()
	out.Cfg, out.Width = hdr.Cfg, hdr.Width
	for {
		f, err := wr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		out.Shards = append(out.Shards, frameShard(hdr.Cfg, f))
		out.ShardPatterns = append(out.ShardPatterns, f.Patterns)
		out.Patterns += f.Patterns
	}
	out.OriginalBits = hdr.Width * out.Patterns
	if ref, ok := wr.DictRef(); ok {
		// Copied here, so that only a container with a 'D' frame
		// allocates it.
		d := ref
		out.Dict = &d
	}
	return nil
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

// putCodes hands the codes of every shard of a Result read from a
// container back to the slab pool the wire reader drew them from.
func putCodes(r *Result) {
	for _, sh := range r.Shards {
		slab.Put(sh.Codes)
	}
}

// Decompress reads any wire container — single-frame or sharded — and
// decompresses it into the fully specified test set: DecodeWireResult
// then Result.Decompress, under a SpanWireDecode span (each frame a
// nested core.decode span). The whole container is verified before
// any frame is decoded: a corrupt or truncated stream returns a typed
// error and no output. A container naming a shared dictionary resolves
// it through opts.Resolver once, and fails with ErrDictNotFound when
// there is no resolver. The returned set owns the memory of every
// frame's cubes; a caller done with it may hand that back with
// TestSet.Release.
func Decompress(ctx context.Context, r io.Reader, opts Options) (*TestSet, error) {
	wctx, sp := opts.Recorder.StartSpan(ctx, SpanWireDecode)
	res, err := DecodeWireResult(r)
	var out *TestSet
	frames := 0
	if err == nil {
		frames = len(res.Shards)
		out, err = res.Decompress(wctx, opts)
		putCodes(res)
	}
	sp.End(telemetry.F("frames", frames), telemetry.F("ok", err == nil))
	return out, err
}
