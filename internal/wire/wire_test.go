package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
)

// buildSet makes a deterministic three-valued cube set.
func buildSet(seed int64, patterns, width int, xDensity float64) *bitvec.CubeSet {
	rng := rand.New(rand.NewSource(seed))
	cs := bitvec.NewCubeSet(width)
	for p := 0; p < patterns; p++ {
		v := bitvec.New(width)
		for i := 0; i < width; i++ {
			if rng.Float64() >= xDensity {
				v.Set(i, bitvec.Bit(rng.Intn(2)))
			}
		}
		if err := cs.Add(v); err != nil {
			panic(err)
		}
	}
	return cs
}

// compressSet compresses the set under cfg, as the root API would.
func compressSet(t testing.TB, cs *bitvec.CubeSet, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	return res
}

// encodeContainer writes a whole container: every (result, patterns)
// pair becomes one frame.
func encodeContainer(t testing.TB, hdr Header, frames ...*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decodeContainer reads a whole container back.
func decodeContainer(data []byte) (Header, []*Frame, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, err
	}
	var frames []*Frame
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return r.Header(), frames, nil
		}
		if err != nil {
			return Header{}, nil, err
		}
		frames = append(frames, f)
	}
}

var roundTripConfigs = []core.Config{
	{CharBits: 2, DictSize: 4, EntryBits: 8, Full: core.FullReset},
	{CharBits: 2, DictSize: 32, EntryBits: 8},
	{CharBits: 4, DictSize: 128, EntryBits: 16, Full: core.FullReset},
	{CharBits: 4, DictSize: 64, EntryBits: 16, Fill: core.FillOne, Tie: core.TieNewest},
	{CharBits: 4, DictSize: 64, EntryBits: 16, Fill: core.FillRepeat, Tie: core.TieWidest},
	{CharBits: 7, DictSize: 1024, EntryBits: 63},
	{CharBits: 8, DictSize: 256, EntryBits: 64, Full: core.FullReset},
}

func TestRoundTrip(t *testing.T) {
	for _, cfg := range roundTripConfigs {
		cs := buildSet(7, 16, 24, 0.7)
		res := compressSet(t, cs, cfg)
		data := encodeContainer(t, Header{Cfg: cfg, Width: cs.Width},
			&Frame{Patterns: len(cs.Cubes), InputBits: res.InputBits, Codes: res.Codes})

		hdr, frames, err := decodeContainer(data)
		if err != nil {
			t.Fatalf("cfg %+v: decode: %v", cfg, err)
		}
		if hdr.Cfg != cfg || hdr.Width != cs.Width {
			t.Fatalf("cfg %+v: header round trip: got %+v width %d", cfg, hdr.Cfg, hdr.Width)
		}
		if len(frames) != 1 {
			t.Fatalf("cfg %+v: got %d frames, want 1", cfg, len(frames))
		}
		f := frames[0]
		if f.Patterns != len(cs.Cubes) || f.InputBits != res.InputBits {
			t.Fatalf("cfg %+v: frame geometry %d/%d, want %d/%d",
				cfg, f.Patterns, f.InputBits, len(cs.Cubes), res.InputBits)
		}
		if len(f.Codes) != len(res.Codes) {
			t.Fatalf("cfg %+v: got %d codes, want %d", cfg, len(f.Codes), len(res.Codes))
		}
		for i := range f.Codes {
			if f.Codes[i] != res.Codes[i] {
				t.Fatalf("cfg %+v: code %d: got %d, want %d", cfg, i, f.Codes[i], res.Codes[i])
			}
		}
	}
}

func TestMultiFrameRoundTrip(t *testing.T) {
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	var frames []*Frame
	want := 0
	for s := int64(0); s < 3; s++ {
		cs := buildSet(100+s, 6, 20, 0.6)
		res := compressSet(t, cs, cfg)
		frames = append(frames, &Frame{Patterns: len(cs.Cubes), InputBits: res.InputBits, Codes: res.Codes})
		want += len(cs.Cubes)
	}
	data := encodeContainer(t, Header{Cfg: cfg, Width: 20}, frames...)
	_, got, err := decodeContainer(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3", len(got))
	}
	total := 0
	for _, f := range got {
		total += f.Patterns
	}
	if total != want {
		t.Fatalf("total patterns %d, want %d", total, want)
	}
}

// container builds the canonical corpus container used by the
// corruption matrix: header + two frames + EOS.
func matrixContainer(t testing.TB) []byte {
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	csA := buildSet(21, 8, 20, 0.7)
	csB := buildSet(22, 5, 20, 0.5)
	resA := compressSet(t, csA, cfg)
	resB := compressSet(t, csB, cfg)
	return encodeContainer(t, Header{Cfg: cfg, Width: 20},
		&Frame{Patterns: 8, InputBits: resA.InputBits, Codes: resA.Codes},
		&Frame{Patterns: 5, InputBits: resB.InputBits, Codes: resB.Codes})
}

// TestCorruptionTruncation truncates the container at every byte
// boundary: every proper prefix must fail to decode, and a clean cut
// between regions must read as ErrTruncated (the missing-EOS case).
func TestCorruptionTruncation(t *testing.T) {
	data := matrixContainer(t)
	for n := 0; n < len(data); n++ {
		_, _, err := decodeContainer(data[:n])
		if err == nil {
			t.Fatalf("truncation at byte %d of %d decoded cleanly", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation at byte %d: untyped error %v", n, err)
		}
	}
	// A cut exactly between a complete frame and the EOS frame is the
	// subtle case: every CRC present is valid, only the EOS is missing.
	end := len(data) - eosLen(t, data)
	_, _, err := decodeContainer(data[:end])
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing EOS frame: got %v, want ErrTruncated", err)
	}
}

// eosLen computes the encoded EOS frame length for the container.
func eosLen(t testing.TB, data []byte) int {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	frames, patterns := 0, 0
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		patterns += f.Patterns
	}
	return len(encodeEOS(frames, patterns))
}

// TestCorruptionBitFlips flips one bit in every byte of the container:
// each mutation must produce a typed error, never a silent success or
// a panic. This covers every CRC-protected region (header payload,
// frame metadata, frame payload, all CRCs themselves) plus the magic
// and version bytes.
func TestCorruptionBitFlips(t *testing.T) {
	data := matrixContainer(t)
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[pos] ^= 1 << bit
			_, _, err := decodeContainer(mut)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", pos, bit)
			}
			switch {
			case errors.Is(err, ErrBadMagic), errors.Is(err, ErrVersion),
				errors.Is(err, ErrChecksum), errors.Is(err, ErrTruncated),
				errors.Is(err, ErrFrameType), errors.Is(err, ErrLimit),
				errors.Is(err, ErrDictFrame):
				// typed wire error: fine ('D' can appear from a marker flip)
			default:
				t.Fatalf("bit flip at byte %d bit %d: unexpected error class %v", pos, bit, err)
			}
		}
	}
}

// TestCorruptionHeaderFields rewrites each header field (with the CRC
// left stale) and asserts ErrChecksum: a mismatched Config can no
// longer slip through as silently garbage output.
func TestCorruptionHeaderFields(t *testing.T) {
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	base := Header{Cfg: cfg, Width: 20}
	mutants := []Header{
		{Cfg: core.Config{CharBits: 5, DictSize: 64, EntryBits: 16}, Width: 20},
		{Cfg: core.Config{CharBits: 4, DictSize: 128, EntryBits: 16}, Width: 20},
		{Cfg: core.Config{CharBits: 4, DictSize: 64, EntryBits: 32}, Width: 20},
		{Cfg: core.Config{CharBits: 4, DictSize: 64, EntryBits: 16, Fill: core.FillOne}, Width: 20},
		{Cfg: core.Config{CharBits: 4, DictSize: 64, EntryBits: 16, Tie: core.TieNewest}, Width: 20},
		{Cfg: core.Config{CharBits: 4, DictSize: 64, EntryBits: 16, Full: core.FullReset}, Width: 20},
		{Cfg: cfg, Width: 21},
	}
	data := matrixContainer(t)
	baseHdr := EncodeHeader(base)
	for i, m := range mutants {
		mutHdr := EncodeHeader(m)
		if len(mutHdr) != len(baseHdr) {
			// Field widths changed under varint encoding; splice is not
			// byte-for-byte but the stale CRC must still fail.
			t.Logf("mutant %d: header length changed %d -> %d", i, len(baseHdr), len(mutHdr))
		}
		// Keep the mutated fields but restore the original (now stale) CRC.
		copy(mutHdr[len(mutHdr)-4:], baseHdr[len(baseHdr)-4:])
		mut := append(bytes.Clone(mutHdr), data[len(baseHdr):]...)
		_, _, err := decodeContainer(mut)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("header mutant %d: got %v, want ErrChecksum", i, err)
		}
	}
}

// TestTypedErrors pins the first-byte failure classes.
func TestTypedErrors(t *testing.T) {
	data := matrixContainer(t)

	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, _, err := decodeContainer(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: got %v", err)
	}

	ver := bytes.Clone(data)
	ver[4] = formatVersion + 1
	if _, _, err := decodeContainer(ver); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: got %v", err)
	}

	if _, _, err := decodeContainer(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: got %v", err)
	}
}

// TestWriterMisuse pins the writer's defensive checks.
func TestWriterMisuse(t *testing.T) {
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Cfg: core.Config{CharBits: 0}, Width: 8}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewWriter(&buf, Header{Cfg: cfg, Width: 0}); err == nil {
		t.Fatal("zero width accepted")
	}
	w, err := NewWriter(&buf, Header{Cfg: cfg, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(&Frame{Patterns: 1, InputBits: 8, Codes: []core.Code{64}}); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	if err := w.WriteFrame(&Frame{Patterns: 0, InputBits: 8}); err == nil {
		t.Fatal("zero-pattern frame accepted")
	}
	other := &core.Result{Cfg: core.Config{CharBits: 2, DictSize: 4}}
	if err := w.WriteResult(other, 1); err == nil {
		t.Fatal("config-mismatched result accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(&Frame{Patterns: 1, InputBits: 4, Codes: []core.Code{1}}); !errors.Is(err, errClosed) {
		t.Fatalf("write after close: got %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestPackUnpackCodes pins the bit packing against core.Result.Pack,
// the ATE bit order the hardware consumes.
func TestPackUnpackCodes(t *testing.T) {
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	cs := buildSet(5, 10, 20, 0.6)
	res := compressSet(t, cs, cfg)
	packed := bitio.AppendCodes(nil, res.Codes, cfg.CodeBits())
	if !bytes.Equal(packed, res.Pack()) {
		t.Fatal("wire packing differs from core.Result.Pack")
	}
	back, err := unpackCodes(packed, len(res.Codes), cfg.CodeBits())
	if err != nil {
		t.Fatalf("unpackCodes: %v", err)
	}
	for i := range back {
		if back[i] != res.Codes[i] {
			t.Fatalf("code %d: got %d, want %d", i, back[i], res.Codes[i])
		}
	}
}

// TestUnpackCodesHostileInputs pins the defensive bounds on the
// code-region decoder: attacker-controlled counts and widths must yield
// typed errors before any count-sized allocation happens, even if a
// future caller forgets the frame-level limits.
func TestUnpackCodesHostileInputs(t *testing.T) {
	data := make([]byte, 16)
	cases := []struct {
		name string
		n    int
		cb   int
		data []byte
		want error
	}{
		{"negative count", -1, 12, data, ErrLimit},
		{"count above MaxFrameCodes", maxFrameCodes + 1, 12, data, ErrLimit},
		{"zero width", 4, 0, data, ErrLimit},
		{"negative width", 4, -8, data, ErrLimit},
		{"width above 64", 4, 65, data, ErrLimit},
		{"width 64", 1, 64, data, ErrLimit},
		{"width one above the format bound", 4, maxCodeBits + 1, data, ErrLimit},
		{"count larger than payload", 32, 12, data, ErrTruncated},
		{"widest code, one byte short", 5, maxCodeBits, data[:5*maxCodeBits/8-1], ErrTruncated},
		{"huge count within limit, empty payload", maxFrameCodes, maxCodeBits, nil, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codes, err := unpackCodes(tc.data, tc.n, tc.cb)
			if !errors.Is(err, tc.want) {
				t.Fatalf("unpackCodes(len=%d, n=%d, cb=%d) err = %v, want %v",
					len(tc.data), tc.n, tc.cb, err, tc.want)
			}
			if codes != nil {
				t.Fatalf("hostile input returned %d codes alongside the error", len(codes))
			}
		})
	}
}

// refPackCodes and refUnpackCodes are the per-bit packers the bulk
// bitio.AppendCodes/ReadCodes replaced, kept as their reference.
func refPackCodes(codes []core.Code, cb int) []byte {
	out := make([]byte, (len(codes)*cb+7)/8)
	bitPos := 0
	for _, c := range codes {
		for i := cb - 1; i >= 0; i-- {
			if c>>uint(i)&1 != 0 {
				out[bitPos>>3] |= 1 << uint(7-bitPos&7)
			}
			bitPos++
		}
	}
	return out
}

func refUnpackCodes(data []byte, n, cb int) []core.Code {
	codes := make([]core.Code, n)
	bitPos := 0
	for i := range codes {
		var v core.Code
		for j := 0; j < cb; j++ {
			v <<= 1
			if data[bitPos>>3]>>uint(7-bitPos&7)&1 != 0 {
				v |= 1
			}
			bitPos++
		}
		codes[i] = v
	}
	return codes
}

// TestPackCodesMatchesPerBit compares the bulk packers with the
// per-bit reference over every code width the format admits, with
// counts whose bit totals end on and off byte boundaries. Codes carry
// stray bits above cb, which both packers must drop.
func TestPackCodesMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for cb := 1; cb <= maxCodeBits; cb++ {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200} {
			codes := make([]core.Code, n)
			for i := range codes {
				codes[i] = core.Code(rng.Uint32())
			}
			packed := bitio.AppendCodes(nil, codes, cb)
			if want := refPackCodes(codes, cb); !bytes.Equal(packed, want) {
				t.Fatalf("cb=%d n=%d: AppendCodes = %x, reference %x", cb, n, packed, want)
			}
			got, err := unpackCodes(packed, n, cb)
			if err != nil {
				t.Fatalf("cb=%d n=%d: unpackCodes: %v", cb, n, err)
			}
			want := refUnpackCodes(packed, n, cb)
			for i := range want {
				if got[i] != want[i] || got[i] != codes[i]&(1<<uint(cb)-1) {
					t.Fatalf("cb=%d n=%d code %d: got %d, reference %d", cb, n, i, got[i], want[i])
				}
			}
			// Random bytes, not just packer output: trailing pad bits set.
			noise := make([]byte, len(packed))
			rng.Read(noise)
			got, err = unpackCodes(noise, n, cb)
			if err != nil {
				t.Fatalf("cb=%d n=%d: unpackCodes(noise): %v", cb, n, err)
			}
			for i, w := range refUnpackCodes(noise, n, cb) {
				if got[i] != w {
					t.Fatalf("cb=%d n=%d noise code %d: got %d, reference %d", cb, n, i, got[i], w)
				}
			}
		}
	}
}

// benchCodes is a frame's worth of 12-bit codes.
func benchCodes() []core.Code {
	rng := rand.New(rand.NewSource(4))
	codes := make([]core.Code, 1<<14)
	for i := range codes {
		codes[i] = core.Code(rng.Intn(1 << 12))
	}
	return codes
}

func BenchmarkPackCodes(b *testing.B) {
	codes := benchCodes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bitio.AppendCodes(nil, codes, 12)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(codes)), "ns/code")
}

func BenchmarkUnpackCodes(b *testing.B) {
	codes := benchCodes()
	packed := bitio.AppendCodes(nil, codes, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := unpackCodes(packed, len(codes), 12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(codes)), "ns/code")
}
