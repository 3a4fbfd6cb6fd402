package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"lzwtc/internal/wire"
)

// TestWireRoundTripConformance runs every conformance case through the
// wire format with no out-of-band Config: DecodeWireResult(EncodeWire(r))
// must reproduce the Result exactly — config, geometry and every code —
// and decompressing the decoded container must match decompressing the
// original.
func TestWireRoundTripConformance(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ts := c.build()
			res, err := Compress(ts, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := res.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeWireResult(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(back.Shards) != 1 {
				t.Fatalf("decoded %d shards from a one-frame container", len(back.Shards))
			}
			if back.Cfg != res.Cfg {
				t.Fatalf("config: got %+v, want %+v", back.Cfg, res.Cfg)
			}
			if back.Width != res.Width || back.Patterns != res.Patterns {
				t.Fatalf("geometry: got %dx%d, want %dx%d", back.Patterns, back.Width, res.Patterns, res.Width)
			}
			if back.Shards[0].InputBits != res.Shards[0].InputBits {
				t.Fatalf("input bits: got %d, want %d", back.Shards[0].InputBits, res.Shards[0].InputBits)
			}
			if len(back.Shards[0].Codes) != len(res.Shards[0].Codes) {
				t.Fatalf("codes: got %d, want %d", len(back.Shards[0].Codes), len(res.Shards[0].Codes))
			}
			for i := range back.Shards[0].Codes {
				if back.Shards[0].Codes[i] != res.Shards[0].Codes[i] {
					t.Fatalf("code %d: got %d, want %d", i, back.Shards[0].Codes[i], res.Shards[0].Codes[i])
				}
			}

			wantSet, err := Decompress(res)
			if err != nil {
				t.Fatal(err)
			}
			gotSet, err := DecompressWire(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("streaming decompress: %v", err)
			}
			assertSetsEqual(t, wantSet, gotSet)

			gotSet2, err := Decompress(back)
			if err != nil {
				t.Fatalf("decoded-result decompress: %v", err)
			}
			assertSetsEqual(t, wantSet, gotSet2)
			if err := Verify(ts, gotSet); err != nil {
				t.Fatalf("care bits: %v", err)
			}
		})
	}
}

// TestWireShardedRoundTrip streams a sharded compression into one
// container and decompresses it frame by frame, matching the in-process
// decompression of the sharded Result exactly. The container also
// decodes back into a Result of one shard per frame that re-encodes
// byte for byte and decompresses to the same set.
func TestWireShardedRoundTrip(t *testing.T) {
	for _, c := range conformanceCases()[:6] {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ts := c.build()
			sr, err := CompressSharded(context.Background(), ts, c.cfg, 5, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteWireSharded(&buf, sr); err != nil {
				t.Fatal(err)
			}
			want, err := Decompress(sr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecompressWire(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertSetsEqual(t, want, got)

			decoded, err := DecodeWireResult(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded.Shards) != len(sr.Shards) {
				t.Fatalf("decoded %d shards, want %d", len(decoded.Shards), len(sr.Shards))
			}
			var again bytes.Buffer
			if err := decoded.WriteWire(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatal("decoded container does not re-encode byte for byte")
			}
			back, err := Decompress(decoded)
			if err != nil {
				t.Fatal(err)
			}
			assertSetsEqual(t, got, back)
		})
	}
}

// TestWireTypedErrorsAtRoot pins the re-exported error identities.
func TestWireTypedErrorsAtRoot(t *testing.T) {
	ts := conformanceSet(42, 6, 12, 0.5)
	res, err := Compress(ts, Config{CharBits: 4, DictSize: 32, EntryBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeWireResult([]byte("XXXX")); !errors.Is(err, ErrWireBadMagic) {
		t.Fatalf("magic: %v", err)
	}
	ver := bytes.Clone(data)
	ver[4] = 0x7f
	if _, err := DecodeWireResult(ver); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version: %v", err)
	}
	if _, err := DecodeWireResult(data[:len(data)-1]); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	flip := bytes.Clone(data)
	flip[len(flip)-10] ^= 0x10
	if _, err := DecodeWireResult(flip); !errors.Is(err, ErrWireChecksum) && !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("corrupt: %v", err)
	}
}

func assertSetsEqual(t *testing.T, want, got *TestSet) {
	t.Helper()
	var wb, gb bytes.Buffer
	if err := want.WriteCubes(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCubes(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("test sets differ")
	}
}

// TestWireStreamingWriterReader drives the root streaming entry points
// over an io.Pipe: frames written on one side decompress on the other
// without the whole container ever being in memory.
func TestWireStreamingPipe(t *testing.T) {
	ts := conformanceSet(77, 9, 18, 0.7)
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(res.WriteWire(pw))
	}()
	got, err := DecompressWire(pr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(res)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsEqual(t, want, got)
}

// TestPlanesMessageIsNotAContainer: a test set in planes form is never
// decompressed; every decoder of code containers rejects its 'P' frame
// with the wire format's frame-type error.
func TestPlanesMessageIsNotAContainer(t *testing.T) {
	ts := conformanceSet(7, 6, 20, 0.5)
	cfg := Config{CharBits: 4, DictSize: 32, EntryBits: 16}
	var msg bytes.Buffer
	if err := wire.WritePlanes(&msg, wire.Header{Cfg: cfg, Width: ts.Width}, ts); err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWire(bytes.NewReader(msg.Bytes())); !errors.Is(err, wire.ErrFrameType) {
		t.Fatalf("DecompressWire: got %v, want ErrFrameType", err)
	}
	if _, err := DecodeWireResult(msg.Bytes()); !errors.Is(err, wire.ErrFrameType) {
		t.Fatalf("DecodeWireResult: got %v, want ErrFrameType", err)
	}
}
