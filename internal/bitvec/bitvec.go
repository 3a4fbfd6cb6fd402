// Package bitvec implements three-valued (0/1/X) bit vectors and test-cube
// sets.
//
// Scan test patterns produced by ATPG are partially specified: every bit is
// 0, 1 or X (don't-care). The compression algorithms in this module consume
// such vectors; the don't-care bits are what the paper's dynamic assignment
// exploits. Vectors are stored two-plane — a value plane and a care plane —
// packed 64 bits per word, so compatibility checks and chunk extraction are
// word operations.
//
// Bit i of a Vector is stored at word i/64, bit position i%64 (LSB-first
// within a word). Chunk(pos, n) returns n stream bits with stream bit pos+j
// at result bit j.
package bitvec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

	"lzwtc/internal/invariant"
)

// Bit is a three-valued logic bit.
type Bit uint8

// Three-valued bit constants.
const (
	Zero Bit = iota // specified 0
	One             // specified 1
	X               // unspecified (don't-care)
)

// String returns "0", "1" or "X".
func (b Bit) String() string {
	switch b {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// Byte returns '0', '1' or 'X' — the single-character rendering without
// going through a string, for byte-at-a-time formatters.
func (b Bit) Byte() byte {
	switch b {
	case Zero:
		return '0'
	case One:
		return '1'
	default:
		return 'X'
	}
}

// Vector is a fixed-length three-valued bit vector.
// The zero value is an empty vector.
type Vector struct {
	n    int
	val  []uint64 // value plane; bit forced 0 where care bit is 0
	care []uint64 // care plane; 1 = specified
}

// New returns an all-X vector of length n.
func New(n int) *Vector {
	invariant.Check(n >= 0, "bitvec: negative length %d", n)
	// The planes are separate allocations on purpose: one shared array
	// measured ~5 % slower in BenchmarkCompress90X, most likely because
	// a long stream's value and care words then sit a power of two
	// apart and compete for the same cache sets.
	w := (n + 63) / 64
	return &Vector{n: n, val: make([]uint64, w), care: make([]uint64, w)}
}

// Len returns the number of bits in v.
func (v *Vector) Len() int { return v.n }

// Planes exposes the backing value and care plane words for word-level
// access (bit i at word i/64, position i%64). Sequential consumers — the
// compressor's character cursor — use it to extract chunks without
// per-call re-validation. A writer — the decompressor's word-wide output
// stage — must keep the vector's invariants: value bits are 0 where care
// is 0, and both planes are 0 at and beyond Len().
func (v *Vector) Planes() (val, care []uint64) { return v.val, v.care }

// Get returns bit i.
func (v *Vector) Get(i int) Bit {
	v.check(i)
	w, b := i/64, uint(i%64)
	if v.care[w]>>b&1 == 0 {
		return X
	}
	return Bit(v.val[w] >> b & 1)
}

// Set assigns bit i.
func (v *Vector) Set(i int, b Bit) {
	v.check(i)
	w, off := i/64, uint(i%64)
	mask := uint64(1) << off
	switch b {
	case Zero:
		v.care[w] |= mask
		v.val[w] &^= mask
	case One:
		v.care[w] |= mask
		v.val[w] |= mask
	default:
		v.care[w] &^= mask
		v.val[w] &^= mask
	}
}

// check bounds-checks an index. The condition is tested inline and the
// invariant call sits in the cold branch: invariant.Check's variadic
// arguments would otherwise box on every Get/Set, which dominates
// allocation in per-bit loops.
func (v *Vector) check(i int) {
	if uint(i) >= uint(v.n) {
		invariant.Violatef("bitvec: index %d out of range [0,%d)", i, v.n)
	}
}

// Chunk extracts n bits (n in [0,64]) starting at stream position pos.
// Stream bit pos+j appears at bit j of the returned value and care words.
// Positions at or beyond Len() read as X (care 0), so a stream may be
// consumed in fixed-size characters with implicit don't-care padding.
func (v *Vector) Chunk(pos, n int) (val, care uint64) {
	if n < 0 || n > 64 {
		invariant.Violatef("bitvec: chunk width %d out of range", n)
	}
	if pos < 0 {
		invariant.Violatef("bitvec: negative chunk position %d", pos)
	}
	val = window(v.val, pos)
	care = window(v.care, pos)
	if n < 64 {
		mask := uint64(1)<<uint(n) - 1
		val &= mask
		care &= mask
	}
	return val, care
}

// window fetches 64 bits of plane starting at bit pos, zero-extended
// beyond the end of the plane.
func window(plane []uint64, pos int) uint64 {
	w, off := pos/64, uint(pos%64)
	var lo, hi uint64
	if w < len(plane) {
		lo = plane[w]
	}
	if off == 0 {
		return lo
	}
	if w+1 < len(plane) {
		hi = plane[w+1]
	}
	return lo>>off | hi<<(64-off)
}

// SetChunk assigns n concrete bits starting at position pos: stream bit
// pos+j becomes bit j of val (0 or 1, always specified). Bits beyond Len()
// are silently dropped, mirroring Chunk's X padding. The write is
// word-parallel: one masked update per touched plane word.
func (v *Vector) SetChunk(pos, n int, val uint64) {
	if n < 0 || n > 64 {
		invariant.Violatef("bitvec: chunk width %d out of range", n)
	}
	if pos < 0 {
		invariant.Violatef("bitvec: negative chunk position %d", pos)
	}
	if pos >= v.n {
		return
	}
	if pos+n > v.n {
		n = v.n - pos
	}
	if n == 0 {
		return
	}
	m := ^uint64(0)
	if n < 64 {
		m = uint64(1)<<uint(n) - 1
	}
	val &= m
	w, off := pos/64, uint(pos%64)
	v.care[w] |= m << off
	v.val[w] = v.val[w]&^(m<<off) | val<<off
	if off+uint(n) > 64 {
		hi := m >> (64 - off)
		v.care[w+1] |= hi
		v.val[w+1] = v.val[w+1]&^hi | val>>(64-off)
	}
}

// putBits overwrites the n bits (n in [1,64]) of plane starting at bit
// pos with the low n bits of x: one masked update per touched word.
func putBits(plane []uint64, pos, n int, x uint64) {
	m := ^uint64(0) >> uint(64-n)
	x &= m
	w, off := pos/64, uint(pos%64)
	plane[w] = plane[w]&^(m<<off) | x<<off
	if off+uint(n) > 64 {
		plane[w+1] = plane[w+1]&^(m>>(64-off)) | x>>(64-off)
	}
}

// copyRange overwrites bits [dpos, dpos+n) of v with bits
// [spos, spos+n) of src, 64 bits of each plane per step. It is the one
// bit-range copier under Concat, SerializeAligned, Deserialize and
// DeserializeAligned.
func (v *Vector) copyRange(dpos int, src *Vector, spos, n int) {
	if dpos < 0 || spos < 0 || n < 0 || dpos+n > v.n || spos+n > src.n {
		invariant.Violatef("bitvec: copy of %d bits from %d (len %d) to %d (len %d) out of range",
			n, spos, src.n, dpos, v.n)
	}
	for k := 0; k < n; k += 64 {
		c := min(n-k, 64)
		putBits(v.val, dpos+k, c, window(src.val, spos+k))
		putBits(v.care, dpos+k, c, window(src.care, spos+k))
	}
}

// CareCount returns the number of specified bits.
func (v *Vector) CareCount() int {
	total := 0
	for _, w := range v.care {
		total += popcount(w)
	}
	return total
}

// XCount returns the number of don't-care bits.
func (v *Vector) XCount() int { return v.n - v.CareCount() }

// XDensity returns the fraction of don't-care bits, in [0,1].
// An empty vector has density 0.
func (v *Vector) XDensity() float64 {
	if v.n == 0 {
		return 0
	}
	return float64(v.XCount()) / float64(v.n)
}

// Equal reports whether v and u have the same length and identical bits
// (X compares equal only to X).
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.val {
		if v.care[i] != u.care[i] || v.val[i]&v.care[i] != u.val[i]&u.care[i] {
			return false
		}
	}
	return true
}

// CompatibleWith reports whether concrete u agrees with v on every
// specified bit of v. u must be fully specified and the same length;
// it returns false otherwise. This is the correctness contract for a
// decompressed test stream: every care bit preserved.
func (v *Vector) CompatibleWith(u *Vector) bool {
	if v.n != u.n || u.XCount() != 0 {
		return false
	}
	for i := range v.val {
		if (v.val[i]^u.val[i])&v.care[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.val, v.val)
	copy(c.care, v.care)
	return c
}

// FillPolicy selects how residual don't-care bits are concretized.
type FillPolicy uint8

// Fill policies.
const (
	FillZero   FillPolicy = iota // X -> 0 (minimum-transition for RLE)
	FillOne                      // X -> 1
	FillRepeat                   // X -> previous concrete bit (0 at start)
)

// String names the policy.
func (p FillPolicy) String() string {
	switch p {
	case FillZero:
		return "zero"
	case FillOne:
		return "one"
	case FillRepeat:
		return "repeat"
	default:
		return fmt.Sprintf("FillPolicy(%d)", uint8(p))
	}
}

// Filled returns a fully specified copy of v with X bits assigned per
// policy p.
func (v *Vector) Filled(p FillPolicy) *Vector {
	c := v.Clone()
	last := Bit(Zero)
	for i := 0; i < c.n; i++ {
		b := c.Get(i)
		if b == X {
			switch p {
			case FillZero:
				b = Zero
			case FillOne:
				b = One
			case FillRepeat:
				b = last
			}
			c.Set(i, b)
		}
		last = b
	}
	return c
}

// Parse builds a vector from a string of '0', '1', 'X'/'x'/'-'.
func Parse(s string) (*Vector, error) { return parseText(s) }

// Byte-lane constants of the cube-text codec: a uint64 holds 8
// characters, character j in byte lane j.
const (
	lanes01 = 0x0101010101010101
	lanes7F = 0x7F7F7F7F7F7F7F7F
	lanes80 = 0x8080808080808080
	xText   = 'X' * lanes01 // "XXXXXXXX"
)

// nonzeroLanes sets bit 7 of every byte lane of y that is non-zero,
// exactly in every lane (not just up to the lowest zero one as the
// borrow-based test is); the other bits are garbage.
func nonzeroLanes(y uint64) uint64 {
	return (y&lanes7F + lanes7F) | y
}

// laneMask gathers bit 7 of each byte lane into an 8-bit mask, lane j
// to bit j.
func laneMask(hi uint64) uint64 {
	return (hi >> 7) * 0x0102040810204080 >> 56
}

// textLanes classifies 8 characters at once: bit 7 is set in every
// byte lane holding '0' or '1' (careHi), and in every lane holding no
// cube character (badHi). '0' and '1' differ from 0x30 only in bit 0;
// 'X' and 'x' differ only in bit 5. A lane's value bit is its bit 0.
func textLanes(x uint64) (careHi, badHi uint64) {
	c := nonzeroLanes((x ^ '0'*lanes01) &^ lanes01)
	return ^c & lanes80, c & nonzeroLanes((x|0x20*lanes01)^'x'*lanes01) & nonzeroLanes(x^'-'*lanes01) & lanes80
}

// load8 returns up to 8 characters of g as byte lanes, character j in
// lane j; lanes past the end of g read as 'X'.
func load8[T string | []byte](g T) uint64 {
	x := uint64(xText)
	for k := min(len(g), 8) - 1; k >= 0; k-- {
		x = x<<8 | uint64(g[k])
	}
	return x
}

// parseText is Parse over a string or a scanner's line bytes.
func parseText[T string | []byte](s T) (*Vector, error) {
	v := New(len(s))
	if i := parseInto(v.val, v.care, s); i >= 0 {
		return nil, badChar(s[i], i)
	}
	return v, nil
}

// badChar is the one error text for a character outside the cube
// alphabet.
func badChar(c byte, i int) error {
	return fmt.Errorf("bitvec: invalid character %q at position %d", c, i)
}

// parseInto is the cube-text parse kernel. It fills the planes val and
// care (at least ⌈len(s)/64⌉ words each) from s, one value word and one
// care word per 64-character block, built 8 characters per step; a
// short final group is padded with 'X'. It returns the position of the
// first invalid character, or -1. Each block ORs its bad lanes into one
// word, and only a non-zero word sends the block back through badLane
// for the exact position.
func parseInto[T string | []byte](val, care []uint64, s T) int {
	for w := 0; w*64 < len(s); w++ {
		blk := s[w*64 : min(w*64+64, len(s))]
		var bv, bc, bad uint64
		for j := 0; j < len(blk); j += 8 {
			var x uint64
			if j+8 <= len(blk) {
				g := blk[j : j+8]
				x = uint64(g[0]) | uint64(g[1])<<8 | uint64(g[2])<<16 | uint64(g[3])<<24 |
					uint64(g[4])<<32 | uint64(g[5])<<40 | uint64(g[6])<<48 | uint64(g[7])<<56
			} else {
				x = load8(blk[j:])
			}
			careHi, badHi := textLanes(x)
			bv |= laneMask(careHi&(x<<7)) << uint(j)
			bc |= laneMask(careHi) << uint(j)
			bad |= badHi
		}
		if bad != 0 {
			return w*64 + badLane(blk)
		}
		val[w], care[w] = bv, bc
	}
	return -1
}

// badLane returns the position of the first invalid character of a
// block that has one.
func badLane[T string | []byte](blk T) int {
	for j := 0; ; j += 8 {
		if _, badHi := textLanes(load8(blk[j:])); badHi != 0 {
			return j + bits.TrailingZeros64(badHi)/8
		}
	}
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) *Vector {
	v, err := Parse(s)
	invariant.Must(err)
	return v
}

// String renders the vector as '0'/'1'/'X' characters.
func (v *Vector) String() string { return string(v.appendText(nil)) }

// spread8[b] holds bit j of b in byte j (0x00 or 0x01), so one table
// load turns 8 plane bits into 8 text lanes.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>j&1) << (8 * j)
		}
	}
	return t
}()

// appendText appends the '0'/'1'/'X' rendering of v to dst. The final
// store of putText may run up to 7 bytes past Len; those bytes sit in
// dst's spare capacity and are sliced off.
func (v *Vector) appendText(dst []byte) []byte {
	start := len(dst)
	padded := (v.n + 7) &^ 7
	dst = slices.Grow(dst, padded)[:start+padded]
	v.putText(dst[start:], 0, v.n)
	return dst[:start+v.n]
}

// putText renders characters [from, to) of v into dst[0:to-from], 8
// characters per store: lanes start as 'X', care lanes flip to '0'
// ('X'^'0' = 0x68 per lane), and value bits turn '0' into '1'. from
// must be a multiple of 8. The last store writes whole 8-byte lanes,
// so dst needs room for to-from rounded up to a multiple of 8.
func (v *Vector) putText(dst []byte, from, to int) {
	for i := from; i < to; {
		w := i / 64
		val, care := v.val[w]>>uint(i%64), v.care[w]>>uint(i%64)
		for end := min(to, w*64+64); i < end; i += 8 {
			binary.LittleEndian.PutUint64(dst[i-from:], xText^spread8[care&0xFF]*('X'^'0')|spread8[val&0xFF])
			val, care = val>>8, care>>8
		}
	}
}

// Concat returns the concatenation of vs as a single vector.
func Concat(vs ...*Vector) *Vector {
	total := 0
	for _, v := range vs {
		total += v.n
	}
	out := New(total)
	pos := 0
	for _, v := range vs {
		out.copyRange(pos, v, 0, v.n)
		pos += v.n
	}
	return out
}

// CubeSet is an ordered collection of equal-width test cubes — the test
// set for one core, one cube per scan pattern.
type CubeSet struct {
	Width int
	Cubes []*Vector
}

// NewCubeSet returns an empty cube set of the given pattern width.
func NewCubeSet(width int) *CubeSet {
	return &CubeSet{Width: width}
}

// Add appends a cube; it must match the set width.
func (cs *CubeSet) Add(v *Vector) error {
	if v.Len() != cs.Width {
		return fmt.Errorf("bitvec: cube width %d != set width %d", v.Len(), cs.Width)
	}
	cs.Cubes = append(cs.Cubes, v)
	return nil
}

// TotalBits returns the uncompressed test-set volume in bits.
func (cs *CubeSet) TotalBits() int { return cs.Width * len(cs.Cubes) }

// XDensity returns the overall don't-care fraction of the set.
func (cs *CubeSet) XDensity() float64 {
	if cs.TotalBits() == 0 {
		return 0
	}
	x := 0
	for _, c := range cs.Cubes {
		x += c.XCount()
	}
	return float64(x) / float64(cs.TotalBits())
}

// Serialize concatenates all cubes into the single scan-in stream the
// compressor consumes (pattern 0 first), matching the paper's
// single-scan-chain evaluation.
func (cs *CubeSet) Serialize() *Vector {
	return Concat(cs.Cubes...)
}

// SerializeAligned is Serialize with every pattern padded (with X bits)
// to the next multiple of charBits, so each scan vector starts on an LZW
// character boundary. This models the decompressor flushing its output
// shifter at the capture cycle between patterns; the pad bits are
// don't-cares and the compressor assigns them freely. Compression ratios
// must still be computed against TotalBits (the unpadded volume).
func (cs *CubeSet) SerializeAligned(charBits int) *Vector {
	if charBits <= 1 || cs.Width%charBits == 0 {
		return cs.Serialize()
	}
	w := (cs.Width + charBits - 1) / charBits * charBits
	out := New(w * len(cs.Cubes))
	for p, c := range cs.Cubes {
		out.copyRange(p*w, c, 0, c.n)
	}
	return out
}

// DeserializeAligned inverts SerializeAligned: it splits a concrete
// stream produced under charBits alignment back into cubes of the given
// width, dropping the per-pattern pad bits.
func DeserializeAligned(stream *Vector, width, charBits int) (*CubeSet, error) {
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
	return split(stream, width, w), nil
}

// Deserialize splits a stream back into cubes of the set's width.
// The stream length must be a multiple of Width.
func Deserialize(stream *Vector, width int) (*CubeSet, error) {
	if width <= 0 {
		return nil, fmt.Errorf("bitvec: invalid width %d", width)
	}
	if stream.Len()%width != 0 {
		return nil, fmt.Errorf("bitvec: stream length %d not a multiple of width %d", stream.Len(), width)
	}
	return split(stream, width, width), nil
}

// split cuts the first width bits of every stride-bit slot of stream
// into a cube. The count is known, so the arena takes every cube from
// one chunk: three allocations per set instead of three per cube.
func split(stream *Vector, width, stride int) *CubeSet {
	cs := NewCubeSet(width)
	count := stream.n / stride
	if count == 0 {
		return cs
	}
	a := cubeArena{width: width, chunk: count}
	cs.Cubes = make([]*Vector, count)
	for i := range cs.Cubes {
		v := a.next()
		v.copyRange(0, stream, i*stride, width)
		cs.Cubes[i] = v
	}
	return cs
}

// cubeArena hands out the cubes of one set from shared backing arrays:
// a chunk of Vector headers and a chunk of plane words, chunk cubes per
// chunk. Each plane is cut with a 3-index slice, so no cube can grow
// into its neighbour. Cubes are short, so the cache-set note in New
// does not apply. The arena never frees: at most one partly used chunk
// is wasted per set.
type cubeArena struct {
	width  int
	chunk  int      // cubes per chunk
	vecs   []Vector // unused headers of the current chunk
	planes []uint64 // unused plane words of the current chunk
}

// arenaChunkBytes sizes the plane chunk of a set whose cube count is
// not known in advance, so unused plane space is bounded per set.
const arenaChunkBytes = 8 << 10

// newCubeArena returns an arena for a set of unknown size: plane chunks
// of about arenaChunkBytes, or one cube per chunk for wider cubes.
func newCubeArena(width int) cubeArena {
	words := 2 * ((width + 63) / 64)
	return cubeArena{width: width, chunk: max(1, arenaChunkBytes/(8*words))}
}

// next returns a fresh all-X cube of the arena's width.
func (a *cubeArena) next() *Vector {
	w := (a.width + 63) / 64
	if len(a.vecs) == 0 {
		a.vecs = make([]Vector, a.chunk)
		a.planes = make([]uint64, 2*w*a.chunk)
	}
	v, p := &a.vecs[0], a.planes
	a.vecs, a.planes = a.vecs[1:], p[2*w:]
	*v = Vector{n: a.width, val: p[:w:w], care: p[w : 2*w : 2*w]}
	return v
}

// blockBytes is the unit cube text moves in: ReadCubes reads into a
// block and WriteCubes hands w one full block per Write. 64 KiB is
// large enough that bufio layers under a connection pass each read and
// write straight through instead of cutting it into 4 KiB steps.
const blockBytes = 64 << 10

// blockPool recycles text blocks. Every pooled block has length
// blockBytes plus 8 bytes of slack for putText's last lane store; a
// buffer the scanner grows for a long line is never put back.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, blockBytes+8)
	return &b
}}

// maxLineBytes caps one cube-text line; the scanner grows its buffer on
// demand up to this size.
const maxLineBytes = 1 << 24

// ReadCubes parses a text cube file: one cube per line of '0'/'1'/'X',
// blank lines and lines starting with '#' ignored. All cubes must have
// equal width. The scanner reads through a pooled block, and each line
// is parsed straight into the set's cube arena.
func ReadCubes(r io.Reader) (*CubeSet, error) {
	blk := blockPool.Get().(*[]byte)
	defer blockPool.Put(blk)
	sc := bufio.NewScanner(r)
	sc.Buffer((*blk)[:blockBytes:blockBytes], maxLineBytes)
	var cs *CubeSet
	var arena cubeArena
	line := 0
	for sc.Scan() {
		line++
		s := bytes.TrimSpace(sc.Bytes())
		if len(s) == 0 || s[0] == '#' {
			continue
		}
		if cs == nil {
			cs, arena = NewCubeSet(len(s)), newCubeArena(len(s))
		}
		if len(s) != cs.Width {
			// A bad character outranks the width mismatch.
			v, err := parseText(s)
			if err == nil {
				err = cs.Add(v)
			}
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		v := arena.next()
		if i := parseInto(v.val, v.care, s); i >= 0 {
			return nil, fmt.Errorf("line %d: %w", line, badChar(s[i], i))
		}
		cs.Cubes = append(cs.Cubes, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cs == nil {
		return nil, fmt.Errorf("bitvec: no cubes in input")
	}
	return cs, nil
}

// WriteCubes writes the set in the text format ReadCubes parses. Lines
// are rendered into a pooled block, and w gets one Write per full block
// of blockBytes, plus one for the rest.
func (cs *CubeSet) WriteCubes(w io.Writer) error {
	blk := blockPool.Get().(*[]byte)
	defer blockPool.Put(blk)
	buf, n := *blk, 0
	for _, c := range cs.Cubes {
		// Each step renders whole lanes up to the block's end, or the
		// line's newline. A lane store may spill up to 7 characters
		// into the slack; they move to the front after the Write.
		for i := 0; i <= c.n; {
			if i < c.n {
				j := min(c.n, i+((blockBytes-n+7)&^7))
				c.putText(buf[n:], i, j)
				n, i = n+j-i, j
			} else {
				buf[n] = '\n'
				n, i = n+1, i+1
			}
			if n >= blockBytes {
				if _, err := w.Write(buf[:blockBytes]); err != nil {
					return err
				}
				n = copy(buf, buf[blockBytes:n])
			}
		}
	}
	if n > 0 {
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
