package bitvec

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// The per-bit loops below are the cube-text and alignment codecs as
// they were before the word-parallel rewrite. They are kept here as the
// reference the word-parallel code must match byte for byte and error
// for error, in the style of TestSetChunkMatchesPerBit.

func refParse(s string) (*Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			v.Set(i, Zero)
		case '1':
			v.Set(i, One)
		case 'X', 'x', '-':
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at position %d", s[i], i)
		}
	}
	return v, nil
}

func refString(v *Vector) string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

func refConcat(vs ...*Vector) *Vector {
	total := 0
	for _, v := range vs {
		total += v.n
	}
	out := New(total)
	pos := 0
	for _, v := range vs {
		for i := 0; i < v.n; i++ {
			if b := v.Get(i); b != X {
				out.Set(pos+i, b)
			}
		}
		pos += v.n
	}
	return out
}

func refSerializeAligned(cs *CubeSet, charBits int) *Vector {
	if charBits <= 1 || cs.Width%charBits == 0 {
		return refConcat(cs.Cubes...)
	}
	w := (cs.Width + charBits - 1) / charBits * charBits
	out := New(w * len(cs.Cubes))
	for p, c := range cs.Cubes {
		for i := 0; i < c.Len(); i++ {
			if b := c.Get(i); b != X {
				out.Set(p*w+i, b)
			}
		}
	}
	return out
}

func refSplit(stream *Vector, width, stride int) *CubeSet {
	cs := NewCubeSet(width)
	for pos := 0; pos < stream.Len(); pos += stride {
		c := New(width)
		for i := 0; i < width; i++ {
			if b := stream.Get(pos + i); b != X {
				c.Set(i, b)
			}
		}
		cs.Cubes = append(cs.Cubes, c)
	}
	return cs
}

func refDeserializeAligned(stream *Vector, width, charBits int) (*CubeSet, error) {
	w := width
	if charBits > 1 {
		w = (width + charBits - 1) / charBits * charBits
	}
	if w <= 0 {
		return nil, fmt.Errorf("bitvec: invalid width %d", width)
	}
	if stream.Len()%w != 0 {
		return nil, fmt.Errorf("bitvec: stream length %d not a multiple of padded width %d", stream.Len(), w)
	}
	return refSplit(stream, width, w), nil
}

func refDeserialize(stream *Vector, width int) (*CubeSet, error) {
	if width <= 0 {
		return nil, fmt.Errorf("bitvec: invalid width %d", width)
	}
	if stream.Len()%width != 0 {
		return nil, fmt.Errorf("bitvec: stream length %d not a multiple of width %d", stream.Len(), width)
	}
	return refSplit(stream, width, width), nil
}

func refReadCubes(r io.Reader) (*CubeSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cs *CubeSet
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := refParse(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if cs == nil {
			cs = NewCubeSet(v.Len())
		}
		if err := cs.Add(v); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cs == nil {
		return nil, fmt.Errorf("bitvec: no cubes in input")
	}
	return cs, nil
}

func refWriteCubes(cs *CubeSet, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range cs.Cubes {
		if _, err := bw.WriteString(refString(c)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sameErr reports whether two errors are both nil or carry the same
// text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// sameSet reports whether two sets have the same width and cubes.
func sameSet(a, b *CubeSet) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Width != b.Width || len(a.Cubes) != len(b.Cubes) {
		return false
	}
	for i := range a.Cubes {
		if !a.Cubes[i].Equal(b.Cubes[i]) {
			return false
		}
	}
	return true
}

// randomText is a cube string over every accepted character.
func randomText(rng *rand.Rand, n int) string {
	const alphabet = "01Xx-"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// textWidths covers the word edges the plane codecs care about.
var textWidths = []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 200, 256, 300}

func TestParseMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range textWidths {
		for trial := 0; trial < 20; trial++ {
			s := randomText(rng, n)
			got, err := Parse(s)
			want, werr := refParse(s)
			if err != nil || werr != nil {
				t.Fatalf("Parse(%q): %v, reference %v", s, err, werr)
			}
			if !got.Equal(want) {
				t.Fatalf("Parse(%q) = %s, reference %s", s, got, want)
			}
		}
	}
}

// TestParseInvalidByteEveryPosition plants an invalid byte at every
// position of a 130-character cube (three plane words) and requires the
// reference's error text, including when earlier blocks are valid.
func TestParseInvalidByteEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bad := []byte{'2', 'Y', ' ', '\t', '\r', 0x00, 0x80, 0xFF, '#', 'o'}
	base := []byte(randomText(rng, 130))
	for pos := range base {
		s := bytes.Clone(base)
		s[pos] = bad[pos%len(bad)]
		if pos+3 < len(s) {
			s[pos+3] = bad[(pos+1)%len(bad)] // a later invalid byte must not win
		}
		_, err := Parse(string(s))
		_, werr := refParse(string(s))
		if err == nil || !sameErr(err, werr) {
			t.Fatalf("pos %d: Parse error %v, reference %v", pos, err, werr)
		}
	}
}

func TestStringMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 300; n++ {
		v := randomVector(rng, n, 0.4)
		if got, want := v.String(), refString(v); got != want {
			t.Fatalf("n=%d: String = %q, reference %q", n, got, want)
		}
	}
}

func TestWriteCubesMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, width := range textWidths[1:] {
		cs := NewCubeSet(width)
		for p := 0; p < 1+rng.Intn(6); p++ {
			cs.Cubes = append(cs.Cubes, randomVector(rng, width, 0.5))
		}
		var got, want bytes.Buffer
		if err := cs.WriteCubes(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCubes(cs, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("width %d: WriteCubes differs from reference:\n got %q\nwant %q", width, got.Bytes(), want.Bytes())
		}
	}
}

// errWriter fails every write after the first limit bytes.
type errWriter struct{ limit int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("short device")
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestWriteCubesWriteError(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cs := NewCubeSet(3000)
	for p := 0; p < 4; p++ {
		cs.Cubes = append(cs.Cubes, randomVector(rng, 3000, 0.5))
	}
	for _, limit := range []int{0, 100, 5000, 9000} {
		err := cs.WriteCubes(&errWriter{limit: limit})
		werr := refWriteCubes(cs, &errWriter{limit: limit})
		if err == nil || !sameErr(err, werr) {
			t.Fatalf("limit %d: WriteCubes error %v, reference %v", limit, err, werr)
		}
	}
}

// cubeDocument renders cs as a text file in the loosest form ReadCubes
// accepts: CRLF and LF endings, '#' comments, blank lines, surrounding
// spaces and tabs, and 'x'/'-' for don't-cares.
func cubeDocument(rng *rand.Rand, cs *CubeSet) string {
	var sb strings.Builder
	pad := []string{"", " ", "\t", "  \t", "\v"}
	eol := []string{"\n", "\r\n"}
	sb.WriteString("# generated cube file\r\n")
	for _, c := range cs.Cubes {
		if rng.Intn(4) == 0 {
			sb.WriteString(pad[rng.Intn(len(pad))] + eol[rng.Intn(2)])
		}
		if rng.Intn(5) == 0 {
			sb.WriteString(pad[rng.Intn(len(pad))] + "# comment 012" + eol[rng.Intn(2)])
		}
		line := []byte(c.String())
		for i, b := range line {
			if b == 'X' {
				line[i] = "Xx-"[rng.Intn(3)]
			}
		}
		sb.WriteString(pad[rng.Intn(len(pad))])
		sb.Write(line)
		sb.WriteString(pad[rng.Intn(len(pad))] + eol[rng.Intn(2)])
	}
	return sb.String()
}

func TestReadCubesMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, width := range textWidths[1:] {
		cs := NewCubeSet(width)
		for p := 0; p < 1+rng.Intn(5); p++ {
			cs.Cubes = append(cs.Cubes, randomVector(rng, width, 0.5))
		}
		doc := cubeDocument(rng, cs)
		got, err := ReadCubes(strings.NewReader(doc))
		want, werr := refReadCubes(strings.NewReader(doc))
		if err != nil || werr != nil {
			t.Fatalf("width %d: ReadCubes %v, reference %v", width, err, werr)
		}
		if !sameSet(got, want) || !sameSet(got, cs) {
			t.Fatalf("width %d: ReadCubes differs from reference", width)
		}

		// An invalid byte at every position of the document: the
		// rewrite must fail (or, where the byte lands in a comment or
		// whitespace, succeed) exactly as the reference does.
		for pos := 0; pos < len(doc); pos++ {
			mut := []byte(doc)
			mut[pos] = "2Y\x00\xff"[pos%4]
			got, err := ReadCubes(bytes.NewReader(mut))
			want, werr := refReadCubes(bytes.NewReader(mut))
			if !sameErr(err, werr) || !sameSet(got, want) {
				t.Fatalf("width %d, invalid byte at %d: ReadCubes (%v) differs from reference (%v)", width, pos, err, werr)
			}
		}
	}
	for _, doc := range []string{"", "\n\n", "# only a comment\n", "01\n011\n", "01\r\n0x1\r\n", " 0-1 \n1x0"} {
		got, err := ReadCubes(strings.NewReader(doc))
		want, werr := refReadCubes(strings.NewReader(doc))
		if !sameErr(err, werr) || !sameSet(got, want) {
			t.Fatalf("ReadCubes(%q) = %v, reference %v", doc, err, werr)
		}
	}
}

// TestReadCubesLineLimits pins the scanner bounds: a 2 MiB line grows
// the buffer on demand and parses, so does a line of maxLineBytes-1
// characters (the longest the cap admits with its newline), and a line
// over the 16 MiB cap fails with bufio.ErrTooLong.
func TestReadCubesLineLimits(t *testing.T) {
	long := strings.Repeat("01X-", (2<<20)/4)
	cs, err := ReadCubes(strings.NewReader(long + "\n" + long))
	if err != nil {
		t.Fatalf("2 MiB line: %v", err)
	}
	if cs.Width != len(long) || len(cs.Cubes) != 2 {
		t.Fatalf("2 MiB line: width %d, %d cubes", cs.Width, len(cs.Cubes))
	}
	capLine := append(bytes.Repeat([]byte("01X-"), maxLineBytes/4)[:maxLineBytes-1], '\n')
	cs, err = ReadCubes(bytes.NewReader(capLine))
	if err != nil || cs.Width != maxLineBytes-1 || cs.Cubes[0].XCount() != (maxLineBytes-1)/2 {
		t.Fatalf("line of %d bytes: %v", maxLineBytes-1, err)
	}
	huge := bytes.Repeat([]byte{'1'}, maxLineBytes+1)
	if _, err := ReadCubes(bytes.NewReader(huge)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over %d bytes: got %v, want bufio.ErrTooLong", maxLineBytes, err)
	}
}

// randomSet builds a set of n random cubes of the given width.
func randomSet(rng *rand.Rand, width, n int, xProb float64) *CubeSet {
	cs := NewCubeSet(width)
	for p := 0; p < n; p++ {
		cs.Cubes = append(cs.Cubes, randomVector(rng, width, xProb))
	}
	return cs
}

// TestAlignedMatchesPerBit drives the shared bit-range copier through
// SerializeAligned, DeserializeAligned, Deserialize and Concat over
// widths 1-300 and charBits 1-16 against the per-bit references.
func TestAlignedMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for width := 1; width <= 300; width++ {
		for charBits := 1; charBits <= 16; charBits++ {
			cs := randomSet(rng, width, rng.Intn(4), 0.5)
			stream := cs.SerializeAligned(charBits)
			if want := refSerializeAligned(cs, charBits); !stream.Equal(want) {
				t.Fatalf("width %d charBits %d: SerializeAligned = %s, reference %s", width, charBits, stream, want)
			}
			// Deserializing works on any stream, filled or not.
			for _, s := range []*Vector{stream, stream.Filled(FillRepeat)} {
				got, err := DeserializeAligned(s, width, charBits)
				want, werr := refDeserializeAligned(s, width, charBits)
				if err != nil || werr != nil || !sameSet(got, want) {
					t.Fatalf("width %d charBits %d: DeserializeAligned (%v) differs from reference (%v)", width, charBits, err, werr)
				}
			}
		}
		stream := randomVector(rng, width*rng.Intn(4), 0.3)
		got, err := Deserialize(stream, width)
		want, werr := refDeserialize(stream, width)
		if err != nil || werr != nil || !sameSet(got, want) {
			t.Fatalf("width %d: Deserialize (%v) differs from reference (%v)", width, err, werr)
		}
		parts := []*Vector{randomVector(rng, width, 0.4), randomVector(rng, rng.Intn(130), 0.4), randomVector(rng, width, 0.4)}
		if got, want := Concat(parts...), refConcat(parts...); !got.Equal(want) {
			t.Fatalf("width %d: Concat = %s, reference %s", width, got, want)
		}
	}
}

func TestAlignedErrorsMatchPerBit(t *testing.T) {
	stream := MustParse("0101010101")
	for _, tc := range []struct{ width, charBits int }{{0, 1}, {-3, 8}, {3, 1}, {3, 4}, {4, 3}, {5, 1}, {10, 16}} {
		got, err := DeserializeAligned(stream, tc.width, tc.charBits)
		want, werr := refDeserializeAligned(stream, tc.width, tc.charBits)
		if !sameErr(err, werr) || !sameSet(got, want) {
			t.Fatalf("DeserializeAligned(%d, %d) = %v, reference %v", tc.width, tc.charBits, err, werr)
		}
		got, err = Deserialize(stream, tc.width)
		want, werr = refDeserialize(stream, tc.width)
		if !sameErr(err, werr) || !sameSet(got, want) {
			t.Fatalf("Deserialize(%d) = %v, reference %v", tc.width, err, werr)
		}
	}
}

// TestDeserializeCubesAreIsolated checks the shared backing array:
// every cube's planes are capacity-capped, so appending to one cube's
// plane cannot write into its neighbour.
func TestDeserializeCubesAreIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	stream := randomVector(rng, 3*130, 0.3)
	cs, err := Deserialize(stream, 130)
	if err != nil {
		t.Fatal(err)
	}
	before := cs.Cubes[1].Clone()
	for _, c := range cs.Cubes {
		val, care := c.Planes()
		if cap(val) != len(val) || cap(care) != len(care) {
			t.Fatalf("cube planes not capacity-capped: val %d/%d care %d/%d", len(val), cap(val), len(care), cap(care))
		}
	}
	val, care := cs.Cubes[0].Planes()
	_ = append(val, ^uint64(0))
	_ = append(care, ^uint64(0))
	if !cs.Cubes[1].Equal(before) {
		t.Fatal("append to cube 0's planes changed cube 1")
	}
}

// FuzzCubeText round-trips arbitrary text through ReadCubes and
// WriteCubes and requires agreement with the per-bit reference: the
// same set or the same error, the same rendering, and a rendering that
// parses back to the same set.
func FuzzCubeText(f *testing.F) {
	f.Add([]byte("01XX\n1X10\n"))
	f.Add([]byte("# c\r\n 0x-1 \r\n\r\n1-x0\t\n"))
	f.Add([]byte("01\n011\n"))
	f.Add([]byte("0120\n"))
	f.Add([]byte(strings.Repeat("01X", 43) + "\n" + strings.Repeat("X10", 43)))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Parse(string(data))
		pv, perr := refParse(string(data))
		if !sameErr(err, perr) || (err == nil && !v.Equal(pv)) {
			t.Fatalf("Parse(%q) = %v, reference %v", data, err, perr)
		}
		cs, err := ReadCubes(bytes.NewReader(data))
		want, werr := refReadCubes(bytes.NewReader(data))
		if !sameErr(err, werr) || !sameSet(cs, want) {
			t.Fatalf("ReadCubes(%q) = %v, reference %v", data, err, werr)
		}
		if err != nil {
			return
		}
		var text, ref bytes.Buffer
		if err := cs.WriteCubes(&text); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCubes(cs, &ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteCubes = %q, reference %q", text.Bytes(), ref.Bytes())
		}
		back, err := ReadCubes(&text)
		if err != nil || !sameSet(back, cs) {
			t.Fatalf("rendered set does not parse back: %v", err)
		}
	})
}

// benchSet is a paper-sized test set: 100 cubes of 1000 bits, 70 % X.
func benchSet() *CubeSet {
	return randomSet(rand.New(rand.NewSource(19)), 1000, 100, 0.7)
}

// benchNarrowSet has the shape of the bulk_async workload: 8192 cubes
// of 214 bits, 72 % X, so per-cube costs dominate per-bit ones.
func benchNarrowSet() *CubeSet {
	return randomSet(rand.New(rand.NewSource(20)), 214, 8192, 0.72)
}

// benchTextSets are the shapes the cube-text benchmarks run over.
var benchTextSets = []struct {
	name string
	set  func() *CubeSet
}{{"paper", benchSet}, {"narrow", benchNarrowSet}}

func BenchmarkCubeTextParse(b *testing.B) {
	for _, bs := range benchTextSets {
		b.Run(bs.name, func(b *testing.B) {
			var text bytes.Buffer
			if err := bs.set().WriteCubes(&text); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadCubes(bytes.NewReader(text.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeCounter counts Write calls, so the render benchmark reports
// the traffic its sink sees.
type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) {
	*w++
	return len(p), nil
}

func BenchmarkCubeTextRender(b *testing.B) {
	for _, bs := range benchTextSets {
		b.Run(bs.name, func(b *testing.B) {
			cs := bs.set()
			var writes writeCounter
			b.SetBytes(int64(cs.TotalBits()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cs.WriteCubes(&writes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
		})
	}
}

func BenchmarkAlignedSerialize(b *testing.B) {
	cs := benchSet()
	b.SetBytes(int64(cs.TotalBits()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs.SerializeAligned(7)
	}
}

func BenchmarkAlignedDeserialize(b *testing.B) {
	cs := benchSet()
	stream := cs.SerializeAligned(7).Filled(FillZero)
	b.SetBytes(int64(cs.TotalBits()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DeserializeAligned(stream, cs.Width, 7); err != nil {
			b.Fatal(err)
		}
	}
}
