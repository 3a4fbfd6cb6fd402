package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillOnes makes every bit of every cube of cs a specified 1.
func fillOnes(cs *CubeSet) {
	for _, c := range cs.Cubes {
		for pos := 0; pos < c.Len(); pos += 64 {
			c.SetChunk(pos, 64, ^uint64(0))
		}
	}
}

// drawAndScribble draws sets of the given shape, as the next requests
// would, and overwrites every cube, so memory handed back twice or
// handed back while still owned shows up as changed cubes.
func drawAndScribble(width, count int) {
	for i := 0; i < 8; i++ {
		fillOnes(MakeCubeSet(width, count))
	}
}

// TestReleaseNoOps: releasing nil, releasing a set twice and releasing
// a set that does not own its cubes (a view over another set's cubes,
// or one built with Add) hand nothing back to the pool: the owner's
// cubes survive the next sets drawn, and two sets drawn after a double
// release share no memory.
func TestReleaseNoOps(t *testing.T) {
	const width, count = 214, 100
	var none *CubeSet
	none.Release()

	owner := randomSet(rand.New(rand.NewSource(36)), width, count, 0.5)
	var text bytes.Buffer
	if err := owner.WriteCubes(&text); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCubes(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	view := &CubeSet{Width: width, Cubes: read.Cubes[:count/2]}
	view.Release()
	added := NewCubeSet(width)
	if err := added.Add(read.Cubes[0]); err != nil {
		t.Fatal(err)
	}
	added.Release()
	drawAndScribble(width, count)
	if !sameSet(read, owner) {
		t.Fatal("releasing a view or an Add-built set handed back the owner's memory")
	}

	twice := MakeCubeSet(width, count)
	twice.Release()
	twice.Release()
	a, b := MakeCubeSet(width, count), MakeCubeSet(width, count)
	fillOnes(a)
	for i, c := range b.Cubes {
		if c.XCount() != width {
			t.Fatalf("cube %d of a fresh set is not all X after a double release", i)
		}
	}
}

// TestReleaseRecycles: a released set's memory goes to the next set of
// its shape, which still starts all X.
func TestReleaseRecycles(t *testing.T) {
	const width, count = 214, 100
	for i := 0; i < 4; i++ {
		cs := MakeCubeSet(width, count)
		for j, c := range cs.Cubes {
			if c.XCount() != width {
				t.Fatalf("round %d: cube %d of a fresh set is not all X", i, j)
			}
		}
		fillOnes(cs)
		cs.Release()
	}
}

// TestAppendSetMovesOwnership: AppendSet leaves the source empty and
// owning nothing, so releasing it is a no-op, while the target owns and
// keeps every cube.
func TestAppendSetMovesOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	want := randomSet(rng, 70, 90, 0.4)
	out := NewCubeSet(70)
	for lo := 0; lo < len(want.Cubes); lo += 30 {
		part := MakeCubeSet(70, 30)
		for i, c := range part.Cubes {
			c.copyRange(0, want.Cubes[lo+i], 0, 70)
		}
		AppendSet(out, part)
		if len(part.Cubes) != 0 || part.arena != nil {
			t.Fatal("AppendSet left the source holding cubes")
		}
		part.Release()
	}
	drawAndScribble(70, 30)
	if !sameSet(out, want) {
		t.Fatal("appended cubes changed")
	}
	out.Release()
}
