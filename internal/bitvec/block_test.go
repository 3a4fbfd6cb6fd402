package bitvec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// Tests for the block I/O under ReadCubes and WriteCubes: text moves in
// pooled blockBytes blocks and parses into a per-set cube arena, and
// both must stay byte-for-byte and error-for-error equal to the per-bit
// references in text_test.go.

// TestReadCubesInvalidCharEveryBlockPosition plants an invalid
// character at every position of a cube with two full 64-character
// blocks and a 37-character tail, on a line that follows comments,
// blank lines and CRLF endings, and requires the reference's error
// text and line number. The same sweep runs on a line whose width is
// also wrong, where the bad character must win over the mismatch.
func TestReadCubesInvalidCharEveryBlockPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const width = 2*64 + 37
	first := randomText(rng, width)
	head := "# header\r\n\r\n" + first + "\r\n  \n# comment\n"
	for _, n := range []int{width, width - 1, width + 5} {
		base := []byte(randomText(rng, n))
		for pos := range base {
			line := bytes.Clone(base)
			line[pos] = "2Y \x00\xff#o"[pos%7]
			if pos+9 < len(line) {
				line[pos+9] = 'Q' // a later invalid character must not win
			}
			for _, eol := range []string{"\n", "\r\n"} {
				doc := head + "\t" + string(line) + eol + first + eol
				got, err := ReadCubes(strings.NewReader(doc))
				want, werr := refReadCubes(strings.NewReader(doc))
				if !sameErr(err, werr) || !sameSet(got, want) {
					t.Fatalf("width %d, bad byte at %d: ReadCubes %v, reference %v", n, pos, err, werr)
				}
			}
		}
		// The untouched line: valid, or a width mismatch on line 6.
		doc := head + string(base) + "\n"
		got, err := ReadCubes(strings.NewReader(doc))
		want, werr := refReadCubes(strings.NewReader(doc))
		if !sameErr(err, werr) || !sameSet(got, want) {
			t.Fatalf("width %d: ReadCubes %v, reference %v", n, err, werr)
		}
		if n != width && (err == nil || !strings.HasPrefix(err.Error(), "line 6: bitvec: cube width")) {
			t.Fatalf("width %d: want a line-6 width mismatch, got %v", n, err)
		}
	}
}

// TestReadCubesSourceShapes feeds ReadCubes through the iotest readers:
// one byte per Read, half the request per Read, the final data together
// with io.EOF, and an error before any data.
func TestReadCubesSourceShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cs := randomSet(rng, 214, 700, 0.72) // ≈150 KiB: three blocks
	doc := cubeDocument(rng, cs)
	sources := map[string]func() io.Reader{
		"OneByteReader": func() io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) },
		"HalfReader":    func() io.Reader { return iotest.HalfReader(strings.NewReader(doc)) },
		"DataErrReader": func() io.Reader { return iotest.DataErrReader(strings.NewReader(doc)) },
		"ErrReader":     func() io.Reader { return iotest.ErrReader(errShortSource) },
		"ErrAfterData":  func() io.Reader { return io.MultiReader(strings.NewReader(doc), iotest.ErrReader(errShortSource)) },
	}
	for name, src := range sources {
		got, err := ReadCubes(src())
		want, werr := refReadCubes(src())
		if !sameErr(err, werr) || !sameSet(got, want) {
			t.Fatalf("%s: ReadCubes %v, reference %v", name, err, werr)
		}
		if strings.HasPrefix(name, "Err") {
			if !errors.Is(err, errShortSource) {
				t.Fatalf("%s: got %v, want the source's error", name, err)
			}
		} else if err != nil || !sameSet(got, cs) {
			t.Fatalf("%s: ReadCubes = %v, want the written set", name, err)
		}
	}
}

var errShortSource = errors.New("source failed")

// TestReadCubesLinesAroundBlockSize parses lines one byte short of, at,
// and one byte past the block size, with LF and CRLF endings and
// without a final newline, so the scanner both fits a line in the
// pooled block and grows past it. TestReadCubesLineLimits covers the
// rest of the range, up to the 16 MiB cap and bufio.ErrTooLong.
func TestReadCubesLinesAroundBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{blockBytes - 2, blockBytes - 1, blockBytes, blockBytes + 1} {
		a, b := randomText(rng, n), randomText(rng, n)
		for _, doc := range []string{a + "\n" + b + "\n", a + "\r\n" + b, "#\n" + a + "\n\n" + b + "\r\n"} {
			got, err := ReadCubes(strings.NewReader(doc))
			want, werr := refReadCubes(strings.NewReader(doc))
			if err != nil || !sameErr(err, werr) || !sameSet(got, want) || len(got.Cubes) != 2 {
				t.Fatalf("%d-byte lines: ReadCubes %v, reference %v", n, err, werr)
			}
		}
	}
	// After lines that grew the scanner's buffer, the pool still hands
	// out blocks of the fixed size: a grown buffer is never put back.
	for i := 0; i < 4; i++ {
		blk := blockPool.Get().(*[]byte)
		if len(*blk) != blockBytes+8 {
			t.Fatalf("pooled block has %d bytes, want %d", len(*blk), blockBytes+8)
		}
		blockPool.Put(blk)
	}
}

// TestReadCubesArenaIsolation checks the cube arena: every cube's
// planes are capacity-capped, so appending to one cube cannot write
// into its neighbour, across a chunk boundary too.
func TestReadCubesArenaIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, width := range []int{1, 64, 214, 4096, 40000} {
		src := randomSet(rng, width, 2*newCubeArena(width).chunk+3, 0.5)
		var text bytes.Buffer
		if err := src.WriteCubes(&text); err != nil {
			t.Fatal(err)
		}
		cs, err := ReadCubes(&text)
		if err != nil || !sameSet(cs, src) {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, c := range cs.Cubes {
			val, care := c.Planes()
			if cap(val) != len(val) || cap(care) != len(care) {
				t.Fatalf("width %d cube %d: planes not capacity-capped: val %d/%d care %d/%d",
					width, i, len(val), cap(val), len(care), cap(care))
			}
			_ = append(val, ^uint64(0))
			_ = append(care, ^uint64(0))
		}
		if !sameSet(cs, src) {
			t.Fatalf("width %d: appending to one cube's planes changed another", width)
		}
		// Writing through one cube leaves the others alone.
		cs.Cubes[0].Set(width-1, One)
		for i := 1; i < len(cs.Cubes); i++ {
			if !cs.Cubes[i].Equal(src.Cubes[i]) {
				t.Fatalf("width %d: Set on cube 0 changed cube %d", width, i)
			}
		}
	}
}

// TestArenaWasteBounded: a set of unknown size wastes at most one
// partly used chunk, whose plane words stay within arenaChunkBytes
// unless a single cube is wider.
func TestArenaWasteBounded(t *testing.T) {
	for _, width := range []int{1, 63, 64, 214, 1000, 32768, 32769, 100000} {
		a := newCubeArena(width)
		words := 2 * ((width + 63) / 64)
		if got := 8 * words * a.chunk; got > max(arenaChunkBytes, 8*words) {
			t.Fatalf("width %d: plane chunk of %d bytes", width, got)
		}
		if got := 8 * words * (a.chunk + 1); words < arenaChunkBytes/8 && got <= arenaChunkBytes {
			t.Fatalf("width %d: plane chunk of %d cubes leaves room for another", width, a.chunk)
		}
	}
}

// countingWriter records the size of every Write it accepts.
type countingWriter struct{ sizes []int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestWriteCubesBlockWrites counts the traffic: w sees ⌈bytes/blockBytes⌉
// Writes, every one but the last exactly one block long, and the
// concatenation is the reference rendering.
func TestWriteCubesBlockWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, tc := range []struct{ width, n int }{
		{214, 1}, {214, 305}, {214, 306}, {214, 2000}, // 2000 lines ≈ 6.6 blocks
		{blockBytes - 1, 3}, {blockBytes, 3}, {blockBytes + 1, 3}, // a line ending exactly on a block
		{1, 3 * blockBytes / 2}, {63, 4000}, {3*blockBytes + 5, 2},
	} {
		cs := randomSet(rng, tc.width, tc.n, 0.4)
		var want bytes.Buffer
		if err := refWriteCubes(cs, &want); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		cw := &countingWriter{}
		if err := cs.WriteCubes(io.MultiWriter(&got, cw)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d×%d: WriteCubes differs from reference", tc.n, tc.width)
		}
		if calls := (want.Len() + blockBytes - 1) / blockBytes; len(cw.sizes) != calls {
			t.Fatalf("%d×%d: %d bytes in %d Writes, want %d", tc.n, tc.width, want.Len(), len(cw.sizes), calls)
		}
		for i, n := range cw.sizes[:len(cw.sizes)-1] {
			if n != blockBytes {
				t.Fatalf("%d×%d: Write %d of %d bytes, want a full block", tc.n, tc.width, i, n)
			}
		}
	}
}

// failingWriter accepts calls before the Nth and fails the Nth.
type failingWriter struct {
	buf   bytes.Buffer
	calls int
	failN int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls == w.failN {
		return 0, fmt.Errorf("write %d failed", w.failN)
	}
	return w.buf.Write(p)
}

// TestWriteCubesFailsOnNthWrite fails the writer on each of its calls in
// turn: WriteCubes returns that call's error, makes no further call, and
// the bytes written before it are whole blocks of the full rendering.
func TestWriteCubesFailsOnNthWrite(t *testing.T) {
	cs := randomSet(rand.New(rand.NewSource(36)), 214, 1000, 0.72)
	var full bytes.Buffer
	if err := cs.WriteCubes(&full); err != nil {
		t.Fatal(err)
	}
	calls := (full.Len() + blockBytes - 1) / blockBytes
	for n := 1; n <= calls; n++ {
		w := &failingWriter{failN: n}
		err := cs.WriteCubes(w)
		if err == nil || err.Error() != fmt.Sprintf("write %d failed", n) {
			t.Fatalf("fail on call %d: got %v", n, err)
		}
		if w.calls != n {
			t.Fatalf("fail on call %d: %d calls made", n, w.calls)
		}
		if want := full.Bytes()[:(n-1)*blockBytes]; !bytes.Equal(w.buf.Bytes(), want) {
			t.Fatalf("fail on call %d: %d bytes written, want the first %d", n, w.buf.Len(), len(want))
		}
	}
}

// countingReader records the size of every Read request, and how many
// requests came before the source first fell short of one.
type countingReader struct {
	r     io.Reader
	sizes []int
	full  int // leading Reads the source filled completely
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	n, err := r.r.Read(p)
	if n == len(p) && r.full == len(r.sizes)-1 {
		r.full++
	}
	return n, err
}

// TestReadCubesBlockReads counts the traffic on the read side. The
// scanner reads into the pooled block's free space, so the first Read
// asks for a whole block, and while the source keeps filling requests
// each later one asks for a block less the partial line carried over.
// No Read asks for the 4 KiB default.
func TestReadCubesBlockReads(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, width := range []int{7, 214, 1000, 20000} {
		cs := randomSet(rng, width, 4*blockBytes/width+3, 0.72)
		var text bytes.Buffer
		if err := cs.WriteCubes(&text); err != nil {
			t.Fatal(err)
		}
		size := text.Len()
		cr := &countingReader{r: &text}
		got, err := ReadCubes(cr)
		if err != nil || !sameSet(got, cs) {
			t.Fatalf("width %d: %v", width, err)
		}
		if cr.sizes[0] != blockBytes {
			t.Fatalf("width %d: first Read asks for %d bytes, want %d", width, cr.sizes[0], blockBytes)
		}
		// Every Read up to the one that drains the source.
		for i, n := range cr.sizes[:cr.full+1] {
			if n < blockBytes-(width+1) {
				t.Fatalf("width %d: Read %d asks for %d bytes, want at least %d", width, i, n, blockBytes-(width+1))
			}
		}
		if max := size/(blockBytes-(width+1)) + 2; cr.full < 3 || len(cr.sizes) > max {
			t.Fatalf("width %d: %d Reads (%d full) for %d bytes, want at most %d", width, len(cr.sizes), cr.full, size, max)
		}
	}
}

// TestReadCubesGrownLineKeepsErrors: a long line that grows the
// scanner's buffer still reports errors exactly as the reference, with
// the bad character in the grown part.
func TestReadCubesGrownLineKeepsErrors(t *testing.T) {
	line := []byte(strings.Repeat("01X", (3*blockBytes)/3))
	line[len(line)-5] = '7'
	doc := "01\n" + string(line) + "\n"
	_, err := ReadCubes(strings.NewReader(doc))
	_, werr := refReadCubes(strings.NewReader(doc))
	if err == nil || !sameErr(err, werr) {
		t.Fatalf("ReadCubes %v, reference %v", err, werr)
	}
}
