package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
)

var planesCfg = core.Config{CharBits: 7, DictSize: 1024, EntryBits: 63}

// encodePlanes renders cs with WritePlanes, failing the test unless
// the message is exactly PlanesSize bytes and no Write exceeds a block.
func encodePlanes(t testing.TB, hdr Header, cs *bitvec.CubeSet) []byte {
	t.Helper()
	var w countingWriter
	if err := WritePlanes(&w, hdr, cs); err != nil {
		t.Fatal(err)
	}
	if size := PlanesSize(hdr, len(cs.Cubes)); w.Len() != size {
		t.Fatalf("message is %d bytes, PlanesSize says %d", w.Len(), size)
	}
	for _, n := range w.writes {
		if n > planeBlockBytes {
			t.Fatalf("a %d-byte Write exceeds one block", n)
		}
	}
	return w.Bytes()
}

// sameSet fails unless got holds exactly the cubes of want.
func sameSet(t testing.TB, got, want *bitvec.CubeSet) {
	t.Helper()
	if got.Width != want.Width || len(got.Cubes) != len(want.Cubes) {
		t.Fatalf("got %d x %d, want %d x %d", len(got.Cubes), got.Width, len(want.Cubes), want.Width)
	}
	for i := range want.Cubes {
		if !got.Cubes[i].Equal(want.Cubes[i]) {
			t.Fatalf("cube %d: got %s, want %s", i, got.Cubes[i], want.Cubes[i])
		}
	}
}

// countingWriter records the size of every Write.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestPlanesRoundTrip: for widths on and off word boundaries, one-frame
// and multi-frame sets, a cube wider than a block and the empty set,
// WritePlanes emits exactly PlanesSize bytes in block-sized writes and
// ReadPlanes gives back the header and every cube.
func TestPlanesRoundTrip(t *testing.T) {
	cases := []struct {
		patterns, width int
		x               float64
	}{
		{0, 8, 0}, {1, 1, 0}, {3, 63, 0.5}, {5, 64, 0.9}, {7, 65, 0.3},
		{300, 255, 0.7}, {700, 1024, 0.8}, {4097, 64, 0.5}, {2, 600_000, 0.9},
	}
	for _, c := range cases {
		hdr := Header{Cfg: planesCfg, Width: c.width}
		cs := buildSet(int64(c.patterns*c.width), c.patterns, c.width, c.x)
		msg := encodePlanes(t, hdr, cs)
		gotHdr, got, err := ReadPlanes(bytes.NewReader(msg))
		if err != nil {
			t.Fatalf("%dx%d: %v", c.patterns, c.width, err)
		}
		if gotHdr != hdr {
			t.Fatalf("header: got %+v, want %+v", gotHdr, hdr)
		}
		sameSet(t, got, cs)
	}
}

// planesFrame renders one 'P' frame around raw plane bytes.
func planesFrame(count uint64, payload []byte) []byte {
	b := appendUvarint([]byte{framePlanes}, count)
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// planesMessage assembles a header, frames and an EOS by hand, so
// tests can plant content a writer never emits.
func planesMessage(width, patterns int, frames ...[]byte) []byte {
	msg := EncodeHeader(Header{Cfg: planesCfg, Width: width})
	for _, f := range frames {
		msg = append(msg, f...)
	}
	return append(msg, encodeEOS(len(frames), patterns)...)
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// planesOverhead is the allocation ReadPlanes may make whatever it
// reads: the header reader's 4 KiB bufio buffer, one 64 KiB payload
// slab if the pool is empty, the first arena chunk of a narrow set
// (8 KiB of planes, ≈29 KiB of cube headers) and small bookkeeping.
// The hostile shapes below claim megabytes to gigabytes.
const planesOverhead = 128 << 10

// planesPerByte bounds the allocation per byte read: a decoded cube
// costs its plane words (as many bytes as it had on the wire), a 56-byte
// Vector header and its slot in the set's cube slice, which for the
// narrowest cube, 16 bytes on the wire, is under 6 bytes per byte read.
const planesPerByte = 8

// TestPlanesHostileShapes: every malformed planes message fails with
// its typed error, and no case allocates more than planesPerByte per
// byte it holds plus the fixed per-call overhead, however large the
// shape it claims.
func TestPlanesHostileShapes(t *testing.T) {
	two := buildSet(7, 4097, 64, 0.5) // two frames: 4096 cubes, then 1
	twoMsg := encodePlanes(t, Header{Cfg: planesCfg, Width: 64}, two)
	wideHdr := EncodeHeader(Header{Cfg: planesCfg, Width: maxWidth})

	onX := make([]byte, 16) // one 64-bit cube: value word, care word
	onX[0] = 1              // value bit 0 set, care bit 0 clear
	beyond := make([]byte, 16)
	beyond[8+7] = 0x80 // care bit 63 of a 60-bit cube

	flipped := bytes.Clone(twoMsg)
	flipped[len(flipped)/2] ^= 0x10
	flippedCRC := bytes.Clone(twoMsg) // last byte of the first frame's CRC
	flippedCRC[headerSize(Header{Cfg: planesCfg, Width: 64})+1+2+4096*16+3] ^= 1

	codeFrame := encodeFrame(&Frame{Patterns: 1, InputBits: 7, Codes: []core.Code{1}}, planesCfg.CodeBits())

	cases := []struct {
		name string
		msg  []byte
		want error
	}{
		{"width 2^24, 10-byte body", wideHdr[:10], ErrTruncated},
		{"width 2^24, one cube announced, few bytes", append(append(bytes.Clone(wideHdr), framePlanes, 1), make([]byte, 100)...), ErrTruncated},
		{"frame claiming 2^24 patterns", append(EncodeHeader(Header{Cfg: planesCfg, Width: 64}), appendUvarint([]byte{framePlanes}, maxFramePatterns)...), ErrLimit},
		{"frame claiming 2^24+1 patterns", append(EncodeHeader(Header{Cfg: planesCfg, Width: 64}), appendUvarint([]byte{framePlanes}, maxFramePatterns+1)...), ErrLimit},
		{"frame over one block", planesMessage(64, 4097, planesFrame(4097, make([]byte, 4097*16))), ErrLimit},
		{"empty frame", planesMessage(64, 0, planesFrame(0, nil)), ErrLimit},
		{"value bit on an X", planesMessage(64, 1, planesFrame(1, onX)), errPlanes},
		{"bit beyond width", planesMessage(60, 1, planesFrame(1, beyond)), errPlanes},
		{"flipped payload byte", flipped, ErrChecksum},
		{"flipped CRC byte", flippedCRC, ErrChecksum},
		{"trailing bytes", append(bytes.Clone(twoMsg), 0), errTrailing},
		{"code frame in a planes message", planesMessage(64, 1, codeFrame), ErrFrameType},
		{"dict frame in a planes message", planesMessage(64, 0, encodeDictRef(DictRef{})), ErrFrameType},
		{"EOS totals off", append(EncodeHeader(Header{Cfg: planesCfg, Width: 64}), encodeEOS(0, 1)...), ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			n := allocBytes(func() { _, _, err = ReadPlanes(bytes.NewReader(c.msg)) })
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if n > planesPerByte*uint64(len(c.msg))+planesOverhead {
				t.Fatalf("allocated %d bytes for a %d-byte message", n, len(c.msg))
			}
		})
	}
}

// TestPlanesTruncatedEverywhere: a two-frame message cut at every byte
// is ErrTruncated wrapping io.ErrUnexpectedEOF, never a shorter set.
func TestPlanesTruncatedEverywhere(t *testing.T) {
	cs := buildSet(9, 4097, 64, 0.5)
	msg := encodePlanes(t, Header{Cfg: planesCfg, Width: 64}, cs)
	for cut := 0; cut < len(msg); cut++ {
		_, got, err := ReadPlanes(bytes.NewReader(msg[:cut]))
		if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: got %v (set %v), want ErrTruncated wrapping io.ErrUnexpectedEOF", cut, len(msg), err, got != nil)
		}
	}
}

// TestPlanesAndCodeContainersDoNotMix: a code container's reader
// rejects a planes message and ReadPlanes rejects a code container,
// both with ErrFrameType.
func TestPlanesAndCodeContainersDoNotMix(t *testing.T) {
	cs := buildSet(3, 5, 20, 0.5)
	msg := encodePlanes(t, Header{Cfg: planesCfg, Width: 20}, cs)
	r, err := NewReader(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); !errors.Is(err, ErrFrameType) {
		t.Fatalf("ReadFrame on a planes message: got %v, want ErrFrameType", err)
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Cfg: planesCfg, Width: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteResult(compressSet(t, cs, planesCfg), len(cs.Cubes)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPlanes(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrFrameType) {
		t.Fatalf("ReadPlanes on a code container: got %v, want ErrFrameType", err)
	}
}

// TestPeekHeader: the header is parsed without being consumed, so the
// same reader still decodes the whole message.
func TestPeekHeader(t *testing.T) {
	cs := buildSet(5, 3, 100, 0.5)
	hdr := Header{Cfg: planesCfg, Width: 100}
	br := bufioReader(encodePlanes(t, hdr, cs))
	got, err := PeekHeader(br)
	if err != nil || got != hdr {
		t.Fatalf("PeekHeader: got %+v, %v; want %+v", got, err, hdr)
	}
	if _, back, err := ReadPlanes(br); err != nil {
		t.Fatal(err)
	} else {
		sameSet(t, back, cs)
	}
	if _, err := PeekHeader(bufioReader([]byte("LZW"))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: got %v, want ErrTruncated", err)
	}
}

func bufioReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }
