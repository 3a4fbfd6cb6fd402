// Package compact implements static test-set compaction: merging
// compatible test cubes and dropping patterns made redundant by others.
// The MinTest-class test sets the paper's evaluation numbers trace back
// to are heavily compacted — many faults' requirements merged into each
// pattern — which is what gives real scan test sets their combination of
// small pattern counts and structured care bits. Running this pass after
// ATPG makes the synthetic flow's cube sets materially closer to those.
package compact

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
	"lzwtc/internal/fault"
	"lzwtc/internal/fsim"
	"lzwtc/internal/invariant"
)

// Stats reports a compaction run.
type Stats struct {
	PatternsIn  int
	PatternsOut int
	Merges      int // cube pairs merged
	Dropped     int // patterns removed by reverse-order fault simulation
	XDensityIn  float64
	XDensityOut float64
}

// compatible reports whether two cubes agree on every bit where both
// are specified (so their union is a valid cube detecting both targets).
func compatible(a, b *bitvec.Vector) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Get(i), b.Get(i)
		if av != bitvec.X && bv != bitvec.X && av != bv {
			return false
		}
	}
	return true
}

// merge returns the union of two compatible cubes.
func merge(a, b *bitvec.Vector) (*bitvec.Vector, error) {
	if !compatible(a, b) {
		return nil, fmt.Errorf("compact: cubes conflict")
	}
	out := a.Clone()
	for i := 0; i < b.Len(); i++ {
		if v := b.Get(i); v != bitvec.X {
			out.Set(i, v)
		}
	}
	return out, nil
}

// mergeCubes greedily merges compatible cubes: each cube is folded into
// the first existing output cube it is compatible with, otherwise it
// starts a new one. O(n²) worst case, fine for test-set sizes.
func mergeCubes(cs *bitvec.CubeSet) (*bitvec.CubeSet, *Stats) {
	st := &Stats{PatternsIn: len(cs.Cubes), XDensityIn: cs.XDensity()}
	out := bitvec.NewCubeSet(cs.Width)
	for _, c := range cs.Cubes {
		merged := false
		for i, o := range out.Cubes {
			if compatible(o, c) {
				m, err := merge(o, c)
				if err == nil {
					out.Cubes[i] = m
					merged = true
					st.Merges++
					break
				}
			}
		}
		if !merged {
			// Widths match by construction, so Add cannot fail.
			invariant.Must(out.Add(c.Clone()))
		}
	}
	st.PatternsOut = len(out.Cubes)
	st.XDensityOut = out.XDensity()
	return out, st
}

// reverseOrderDrop removes patterns that detect no fault first: cubes
// are fault-simulated in reverse order with dropping, and any cube that
// is never the first detector of a remaining fault is discarded. This is
// classic reverse-order static compaction; detection is X-aware, so the
// kept set's coverage is independent of later don't-care filling.
func reverseOrderDrop(cb *circuit.Comb, cs *bitvec.CubeSet, faults []fault.Fault) (*bitvec.CubeSet, *Stats, error) {
	st := &Stats{PatternsIn: len(cs.Cubes), XDensityIn: cs.XDensity()}
	rev := bitvec.NewCubeSet(cs.Width)
	for i := len(cs.Cubes) - 1; i >= 0; i-- {
		if err := rev.Add(cs.Cubes[i]); err != nil {
			return nil, nil, err
		}
	}
	res, err := fsim.Run(cb, rev, faults)
	if err != nil {
		return nil, nil, err
	}
	needed := make([]bool, len(rev.Cubes))
	for _, at := range res.DetectedBy {
		if at >= 0 {
			needed[at] = true
		}
	}
	out := bitvec.NewCubeSet(cs.Width)
	for i := len(rev.Cubes) - 1; i >= 0; i-- { // restore original order
		if needed[i] {
			if err := out.Add(rev.Cubes[i]); err != nil {
				return nil, nil, err
			}
		} else {
			st.Dropped++
		}
	}
	st.PatternsOut = len(out.Cubes)
	st.XDensityOut = out.XDensity()
	return out, st, nil
}

// Compact runs merge-then-drop, the standard static compaction recipe.
func Compact(cb *circuit.Comb, cs *bitvec.CubeSet, faults []fault.Fault) (*bitvec.CubeSet, *Stats, error) {
	merged, mst := mergeCubes(cs)
	dropped, dst, err := reverseOrderDrop(cb, merged, faults)
	if err != nil {
		return nil, nil, err
	}
	return dropped, &Stats{
		PatternsIn:  mst.PatternsIn,
		PatternsOut: dst.PatternsOut,
		Merges:      mst.Merges,
		Dropped:     dst.Dropped,
		XDensityIn:  mst.XDensityIn,
		XDensityOut: dst.XDensityOut,
	}, nil
}
