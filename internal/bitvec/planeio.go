package bitvec

import (
	"encoding/binary"
	"fmt"

	"lzwtc/internal/invariant"
)

// Plane form: a cube stored as its ⌈n/64⌉ value words followed by its
// ⌈n/64⌉ care words, each word little-endian. It is the cube's memory
// layout written out word for word, so encoding and decoding a set are
// one 8-byte load or store per word instead of one character per bit.

// PlaneBytes returns the size in bytes of one cube of the given width
// in plane form.
func PlaneBytes(width int) int { return 16 * ((width + 63) / 64) }

// PutPlaneWords stores plane-form words of v into dst, starting at
// word from (value words are 0..w-1, care words w..2w-1), one word per
// 8 bytes of dst. It returns the number of words stored: len(dst)/8, or
// fewer when the cube's words run out first.
func (v *Vector) PutPlaneWords(dst []byte, from int) int {
	w := len(v.val)
	if from < 0 || from > 2*w {
		invariant.Violatef("bitvec: plane word %d out of range [0,%d]", from, 2*w)
	}
	n := min(len(dst)/8, 2*w-from)
	i := 0
	for ; i < n && from+i < w; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], v.val[from+i])
	}
	for ; i < n; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], v.care[from+i-w])
	}
	return n
}

// PlaneLoader builds a cube set from plane-form bytes. Cubes come from
// the set's arena, which grows one chunk at a time as cubes arrive, so
// memory tracks the bytes loaded rather than any announced count.
type PlaneLoader struct {
	cs    *CubeSet
	arena cubeArena
}

// NewPlaneLoader returns a loader for an empty set of the given width.
// It allocates no cube storage until the first Load.
func NewPlaneLoader(width int) *PlaneLoader {
	return &PlaneLoader{cs: NewCubeSet(width), arena: newCubeArena(width)}
}

// Set returns the cubes loaded so far.
func (l *PlaneLoader) Set() *CubeSet { return l.cs }

// Load appends the cubes in src, whose length must be a multiple of
// PlaneBytes(width). A cube is rejected, and nothing after it loaded,
// when a value bit is set where its care bit is clear, or when any bit
// at or beyond the width is set: either would break the Vector
// invariants every consumer relies on.
func (l *PlaneLoader) Load(src []byte) error {
	pb := PlaneBytes(l.cs.Width)
	if pb == 0 {
		return fmt.Errorf("bitvec: invalid width %d", l.cs.Width)
	}
	if len(src)%pb != 0 {
		return fmt.Errorf("bitvec: %d plane bytes is not a whole number of %d-byte cubes", len(src), pb)
	}
	w := pb / 16
	tail := ^LaneMask(l.cs.Width % 64)
	if l.cs.Width%64 == 0 {
		tail = 0
	}
	for off := 0; off < len(src); off += pb {
		v := l.arena.next()
		var onX uint64
		for j := range w {
			val := binary.LittleEndian.Uint64(src[off+8*j:])
			care := binary.LittleEndian.Uint64(src[off+8*(w+j):])
			onX |= val &^ care
			v.val[j], v.care[j] = val, care
		}
		if onX != 0 {
			return fmt.Errorf("bitvec: cube %d has a value bit set on an X", len(l.cs.Cubes))
		}
		if v.care[w-1]&tail != 0 {
			return fmt.Errorf("bitvec: cube %d has a bit set at or beyond width %d", len(l.cs.Cubes), l.cs.Width)
		}
		l.cs.Cubes = append(l.cs.Cubes, v)
	}
	return nil
}
