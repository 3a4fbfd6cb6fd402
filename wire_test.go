package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// TestWireRoundTripConformance runs every conformance case through the
// wire format with no out-of-band Config: DecodeWireResult of a
// Result's container must reproduce the Result exactly — config,
// geometry and every code — and decompressing the decoded container
// must match decompressing the original.
func TestWireRoundTripConformance(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ts := c.build()
			res, err := Compress(context.Background(), ts, c.cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			data := wireBytes(t, res)
			back, err := DecodeWireResult(bytes.NewReader(data))
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

			wantSet, err := res.Decompress(context.Background(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotSet, err := Decompress(context.Background(), bytes.NewReader(data), Options{})
			if err != nil {
				t.Fatalf("streaming decompress: %v", err)
			}
			assertSetsEqual(t, wantSet, gotSet)

			gotSet2, err := back.Decompress(context.Background(), Options{})
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
			sr, err := Compress(context.Background(), ts, c.cfg, Options{ShardPatterns: 5})
			if err != nil {
				t.Fatal(err)
			}
			container := wireBytes(t, sr)
			want, err := sr.Decompress(context.Background(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(context.Background(), bytes.NewReader(container), Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSetsEqual(t, want, got)

			decoded, err := DecodeWireResult(bytes.NewReader(container))
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded.Shards) != len(sr.Shards) {
				t.Fatalf("decoded %d shards, want %d", len(decoded.Shards), len(sr.Shards))
			}
			if !bytes.Equal(wireBytes(t, decoded), container) {
				t.Fatal("decoded container does not re-encode byte for byte")
			}
			back, err := decoded.Decompress(context.Background(), Options{})
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
	res, err := Compress(context.Background(), ts, Config{CharBits: 4, DictSize: 32, EntryBits: 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := wireBytes(t, res)

	if _, err := DecodeWireResult(bytes.NewReader([]byte("XXXX"))); !errors.Is(err, ErrWireBadMagic) {
		t.Fatalf("magic: %v", err)
	}
	ver := bytes.Clone(data)
	ver[4] = 0x7f
	if _, err := DecodeWireResult(bytes.NewReader(ver)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version: %v", err)
	}
	if _, err := DecodeWireResult(bytes.NewReader(data[:len(data)-1])); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	flip := bytes.Clone(data)
	flip[len(flip)-10] ^= 0x10
	if _, err := DecodeWireResult(bytes.NewReader(flip)); !errors.Is(err, ErrWireChecksum) && !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("corrupt: %v", err)
	}
}

// wireBytes renders r as one in-memory wire container.
func wireBytes(t testing.TB, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestWireStreamingPipe drives the root entry points over an io.Pipe:
// Decompress reads the container as the writer produces it, with no
// whole copy of the container's bytes in memory.
func TestWireStreamingPipe(t *testing.T) {
	ts := conformanceSet(77, 9, 18, 0.7)
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8}
	res, err := Compress(context.Background(), ts, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(res.WriteWire(pw))
	}()
	got, err := Decompress(context.Background(), pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Decompress(context.Background(), Options{})
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
	if _, err := Decompress(context.Background(), bytes.NewReader(msg.Bytes()), Options{}); !errors.Is(err, wire.ErrFrameType) {
		t.Fatalf("Decompress: got %v, want ErrFrameType", err)
	}
	if _, err := DecodeWireResult(bytes.NewReader(msg.Bytes())); !errors.Is(err, wire.ErrFrameType) {
		t.Fatalf("DecodeWireResult: got %v, want ErrFrameType", err)
	}
}

// TestContainerSizeMatchesWriteWire: wire.ContainerSize, which the
// service sends as the compress reply's Content-Length, is the exact
// length of WriteWire's output for every conformance case, cold and
// warm, as one shard and sharded.
func TestContainerSizeMatchesWriteWire(t *testing.T) {
	for _, c := range conformanceCases() {
		ts := c.build()
		ents := []*dictstore.Entry{nil}
		if c.cfg.Full != FullReset { // a FullReset container names no dictionary
			ents = append(ents, trainedEntry(t, ts, c.cfg))
		}
		for _, ent := range ents {
			for _, shard := range []int{0, 3} {
				res, err := Compress(context.Background(), ts, c.cfg, Options{Dict: ent, ShardPatterns: shard})
				if err != nil {
					t.Fatal(err)
				}
				got := wire.ContainerSize(wire.Header{Cfg: res.Cfg, Width: res.Width}, res.Dict != nil, res.Shards, res.ShardPatterns)
				if want := len(wireBytes(t, res)); got != want {
					t.Errorf("%s (warm %v, shard %d): ContainerSize %d, WriteWire wrote %d bytes", c.name, ent != nil, shard, got, want)
				}
			}
		}
	}
}

// TestWireChecksumFailsBeforeAnyDecode: a container of 8 frames whose
// last data frame fails its CRC is rejected with ErrWireChecksum before
// any frame is decoded, so no core.decode span is recorded.
func TestWireChecksumFailsBeforeAnyDecode(t *testing.T) {
	ts := conformanceSet(29, 40, 24, 0.6)
	cfg := Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	res, err := Compress(context.Background(), ts, cfg, Options{ShardPatterns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 8 {
		t.Fatalf("%d shards, want 8", len(res.Shards))
	}
	// Write the frames one by one to find where the last one ends: its
	// CRC is its last four bytes.
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, wire.Header{Cfg: res.Cfg, Width: res.Width})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range res.Shards {
		if err := w.WriteResult(sh, res.ShardPatterns[i]); err != nil {
			t.Fatal(err)
		}
	}
	lastCRC := buf.Len() - 1
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.Equal(data, wireBytes(t, res)) {
		t.Fatal("frame-by-frame container differs from WriteWire")
	}
	data[lastCRC] ^= 0x01

	var spans []string
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if sp, ok := telemetry.SpanRecordFromEvent(ev); ok {
			spans = append(spans, sp.Name)
		}
	}))
	if _, err := Decompress(context.Background(), bytes.NewReader(data), Options{Recorder: rec}); !errors.Is(err, ErrWireChecksum) {
		t.Fatalf("Decompress: got %v, want ErrWireChecksum", err)
	}
	for _, name := range spans {
		if name == core.SpanDecode {
			t.Fatalf("a frame was decoded before the container verified; spans %v", spans)
		}
	}
}
