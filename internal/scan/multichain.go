package scan

import (
	"fmt"

	"lzwtc/internal/bitvec"
)

// ChainCubes splits a test set into per-chain cube sets (one per scan
// chain, in chain order) plus the primary-input set. The paper's method
// is scan-architecture independent (Section 1.2): each chain's stream
// can be compressed with its own dictionary, or the chains can share a
// decompressor through a demultiplexer — either way these are the
// streams involved.
func (d *Design) ChainCubes(cs *bitvec.CubeSet) (chains []*bitvec.CubeSet, pis *bitvec.CubeSet, err error) {
	if cs.Width != d.PatternWidth() {
		return nil, nil, fmt.Errorf("scan: cube width %d, design needs %d", cs.Width, d.PatternWidth())
	}
	nPI := len(d.Comb.PIs)
	// Pattern position of each flip-flop.
	pos := make(map[int]int, len(d.Comb.PPIs))
	for i, ff := range d.Comb.PPIs {
		pos[ff] = nPI + i
	}

	pis = bitvec.NewCubeSet(nPI)
	chains = make([]*bitvec.CubeSet, len(d.Chains))
	for k, ch := range d.Chains {
		chains[k] = bitvec.NewCubeSet(len(ch.Cells))
	}
	for _, cube := range cs.Cubes {
		pv := bitvec.New(nPI)
		for i := 0; i < nPI; i++ {
			if b := cube.Get(i); b != bitvec.X {
				pv.Set(i, b)
			}
		}
		if err := pis.Add(pv); err != nil {
			return nil, nil, err
		}
		for k, ch := range d.Chains {
			cv := bitvec.New(len(ch.Cells))
			for j, cell := range ch.Cells {
				if b := cube.Get(pos[cell]); b != bitvec.X {
					cv.Set(j, b)
				}
			}
			if err := chains[k].Add(cv); err != nil {
				return nil, nil, err
			}
		}
	}
	return chains, pis, nil
}

// mergeChainCubes inverts ChainCubes, reassembling full-width patterns
// from per-chain sets and the primary-input set.
func (d *Design) mergeChainCubes(chains []*bitvec.CubeSet, pis *bitvec.CubeSet) (*bitvec.CubeSet, error) {
	if len(chains) != len(d.Chains) {
		return nil, fmt.Errorf("scan: %d chain sets for %d chains", len(chains), len(d.Chains))
	}
	if pis.Width != len(d.Comb.PIs) {
		return nil, fmt.Errorf("scan: PI width %d, want %d", pis.Width, len(d.Comb.PIs))
	}
	n := len(pis.Cubes)
	for k, ch := range chains {
		if ch.Width != len(d.Chains[k].Cells) {
			return nil, fmt.Errorf("scan: chain %d width %d, want %d", k, ch.Width, len(d.Chains[k].Cells))
		}
		if len(ch.Cubes) != n {
			return nil, fmt.Errorf("scan: chain %d has %d patterns, want %d", k, len(ch.Cubes), n)
		}
	}
	nPI := len(d.Comb.PIs)
	pos := make(map[int]int, len(d.Comb.PPIs))
	for i, ff := range d.Comb.PPIs {
		pos[ff] = nPI + i
	}
	out := bitvec.NewCubeSet(d.PatternWidth())
	for p := 0; p < n; p++ {
		cube := bitvec.New(d.PatternWidth())
		for i := 0; i < nPI; i++ {
			if b := pis.Cubes[p].Get(i); b != bitvec.X {
				cube.Set(i, b)
			}
		}
		for k, ch := range chains {
			for j, cell := range d.Chains[k].Cells {
				if b := ch.Cubes[p].Get(j); b != bitvec.X {
					cube.Set(pos[cell], b)
				}
			}
		}
		if err := out.Add(cube); err != nil {
			return nil, err
		}
	}
	return out, nil
}
