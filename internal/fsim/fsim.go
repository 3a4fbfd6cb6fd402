// Package fsim is an X-aware parallel-pattern fault simulator.
//
// Test cubes keep their don't-care bits during simulation: a fault
// counts as detected by a cube only when good and faulty machines both
// produce *specified* and differing values at an observation point —
// i.e. detection holds no matter how the compressor later assigns the X
// bits. This is the correctness contract the paper's flow depends on:
// the compression stage is free to fill don't-cares, so fault dropping
// must be fill-independent.
//
// Patterns are simulated 64 at a time in the (one, zero) plane encoding;
// each fault is then propagated event-free through its fanout cone only.
package fsim

import (
	"math/bits"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
	"lzwtc/internal/fault"
	"lzwtc/internal/sim"
)

// Result reports a fault-simulation run.
type Result struct {
	Total      int
	Detected   int
	DetectedBy []int // per fault: index of the first detecting cube, -1 if none
}

// Coverage returns detected/total.
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Run simulates every cube against every fault (with fault dropping) and
// reports first-detection indices.
func Run(cb *circuit.Comb, cubes *bitvec.CubeSet, faults []fault.Fault) (*Result, error) {
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	remaining := make([]int, len(faults)) // indices into faults
	for i := range remaining {
		remaining[i] = i
	}

	ps := sim.NewPState(cb)
	cones := newConeCache(cb)
	fvals := make([]sim.PVal, len(cb.C.Gates))

	for base := 0; base < len(cubes.Cubes) && len(remaining) > 0; base += 64 {
		hi := base + 64
		if hi > len(cubes.Cubes) {
			hi = len(cubes.Cubes)
		}
		if err := ps.Apply(cubes.Cubes[base:hi]); err != nil {
			return nil, err
		}
		good := ps.Vals()
		nPat := hi - base

		kept := remaining[:0]
		for _, fi := range remaining {
			f := faults[fi]
			mask := detectMask(cb, cones, good, fvals, f, nPat)
			if mask == 0 {
				kept = append(kept, fi)
				continue
			}
			res.DetectedBy[fi] = base + bits.TrailingZeros64(mask)
			res.Detected++
		}
		remaining = kept
	}
	return res, nil
}

// DetectsAny reports, for a single cube, which of the given faults it
// detects (X-aware). Used by ATPG for per-cube dropping.
func DetectsAny(cb *circuit.Comb, cones *ConeCache, good *sim.PState, faults []fault.Fault, scratch []sim.PVal) []bool {
	out := make([]bool, len(faults))
	for i, f := range faults {
		out[i] = detectMask(cb, cones, good.Vals(), scratch, f, good.N()) != 0
	}
	return out
}

// detectMask returns, as a bit mask over pattern slots, which patterns
// detect the fault: good and faulty observation values specified and
// different.
func detectMask(cb *circuit.Comb, cones *ConeCache, good []sim.PVal, fvals []sim.PVal, f fault.Fault, nPat int) uint64 {
	site := f.SiteGate()
	cone := cones.cone(site)

	// Faulty value at the site.
	var fsite sim.PVal
	g := cb.C.Gates[site]
	if f.Pin < 0 {
		fsite = sim.FromBit(f.SA)
	} else {
		in := make([]sim.PVal, len(g.Fanin))
		for k, d := range g.Fanin {
			in[k] = good[d]
		}
		in[f.Pin] = sim.FromBit(f.SA)
		fsite = sim.EvalP(g.Type, in)
	}
	// Fast reject: a downstream specified difference requires a specified
	// difference at the site (an X at either side can only mask), so the
	// detection mask is bounded by the site's difference mask.
	siteDiff := diffMask(good[site], fsite)
	if siteDiff == 0 {
		return 0
	}

	fvals[site] = fsite
	var buf [8]sim.PVal
	for _, id := range cone.order {
		gg := &cb.C.Gates[id]
		in := buf[:0]
		for _, d := range gg.Fanin {
			if cone.member[d] || d == site {
				in = append(in, fvals[d])
			} else {
				in = append(in, good[d])
			}
		}
		fvals[id] = sim.EvalP(gg.Type, in)
	}

	var mask uint64
	for i := 0; i < cb.ObsCount(); i++ {
		o := cb.ObsAt(i)
		fv := good[o]
		if cone.member[o] || o == site {
			fv = fvals[o]
		}
		mask |= diffMask(good[o], fv)
	}
	if nPat < 64 {
		mask &= 1<<uint(nPat) - 1
	}
	return mask
}

// diffMask marks slots where both values are specified and different.
func diffMask(a, b sim.PVal) uint64 {
	return a.One&b.Zero | a.Zero&b.One
}

// ConeCache memoizes fanout cones: the set of gates reachable from a
// site, in levelized order (excluding the site itself).
type ConeCache struct {
	cb    *circuit.Comb
	pos   []int // gate id -> position in cb.Order
	cones map[int]*cone
}

type cone struct {
	member []bool
	order  []int
}

// NewConeCache builds an empty cache for the circuit.
func NewConeCache(cb *circuit.Comb) *ConeCache { return newConeCache(cb) }

func newConeCache(cb *circuit.Comb) *ConeCache {
	pos := make([]int, len(cb.C.Gates))
	for i, id := range cb.Order {
		pos[id] = i
	}
	return &ConeCache{cb: cb, pos: pos, cones: make(map[int]*cone)}
}

// cone returns the fanout cone of a site.
func (cc *ConeCache) cone(site int) *cone {
	if c, ok := cc.cones[site]; ok {
		return c
	}
	member := make([]bool, len(cc.cb.C.Gates))
	var ids []int
	stack := []int{site}
	fanout := cc.cb.C.Fanout()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range fanout[id] {
			// A DFF's input is a pseudo output; the fault effect stops
			// there (it would be captured, not propagated combinationally).
			if cc.cb.C.Gates[s].Type == circuit.DFF || member[s] {
				continue
			}
			member[s] = true
			ids = append(ids, s)
			stack = append(stack, s)
		}
	}
	// Levelize the cone by global order position.
	sortByPos(ids, cc.pos)
	c := &cone{member: member, order: ids}
	cc.cones[site] = c
	return c
}

func sortByPos(ids []int, pos []int) {
	// Insertion sort: cones are small and mostly ordered already.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && pos[ids[j]] < pos[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
