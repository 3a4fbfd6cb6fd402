package experiments

// Extension experiments beyond the paper's tables: a wider baseline
// sweep (adding FDR, alternating run-length and selective Huffman — the
// rest of the paper's related-work taxonomy) and a multi-scan-chain
// study backing the paper's Section 1.2 claim that the method is
// independent of the scan architecture.

import (
	"fmt"

	"lzwtc/internal/atpg"
	"lzwtc/internal/bench"
	"lzwtc/internal/circuit"
	"lzwtc/internal/core"
	"lzwtc/internal/huffman"
	"lzwtc/internal/lz77"
	"lzwtc/internal/report"
	"lzwtc/internal/rle"
	"lzwtc/internal/scan"
)

// baselines compares LZW against the full related-work taxonomy of
// Section 1.1 on all twelve circuits: LZ77 (ref [8]), Golomb RLE (ref
// [10]), FDR and alternating run-length (ref [11]) and selective
// Huffman statistical coding (refs [5],[15]).
func baselines() (*report.Table, error) {
	t := &report.Table{
		Title:   "Extension: full baseline comparison (Section 1.1 taxonomy)",
		Headers: []string{"Test", "LZW", "LZ77", "Golomb", "FDR", "Altern.", "Huffman"},
		Note:    "Huffman: selective coding, 8-bit blocks, 16 coded patterns, table cost included.",
	}
	for _, p := range bench.Profiles() {
		cfg := LZWConfig(p)
		_, lzwRatio, err := compressLZW(p, cfg)
		if err != nil {
			return nil, err
		}
		stream := p.Generate().Serialize()
		l7, err := lz77.Compress(stream, lz77Config(p))
		if err != nil {
			return nil, err
		}
		ratios := []interface{}{p.Name, lzwRatio, l7.Stats.Ratio()}
		for _, kind := range []rle.Kind{rle.Golomb, rle.FDR, rle.Alternating} {
			r, err := rle.Compress(stream, rle.Config{Kind: kind})
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, r.Stats.Ratio())
		}
		h, err := huffman.Compress(stream, huffman.DefaultConfig())
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, h.Stats.Ratio())
		t.Add(ratios...)
	}
	return t, nil
}

// multichain demonstrates scan-architecture independence: an ATPG cube
// set for a synthetic core is split over 1, 2 and 4 scan chains, each
// chain compressed with its own dictionary, and the aggregate ratio
// compared (the per-pattern alignment overhead grows with chain count;
// the dictionaries shrink with it).
func multichain() (*report.Table, error) {
	t := &report.Table{
		Title:   "Extension: compression vs scan-chain count (synthetic core, PODEM cubes)",
		Headers: []string{"Chains", "Streams", "Aggregate bits", "Compressed", "Ratio"},
		Note:    "Each chain compressed independently (C_C=7, N=512, C_MDATA=63); PIs carried on chain 0's channel.",
	}
	gen, err := circuit.Generate(circuit.GenConfig{Name: "mc", Inputs: 16, Outputs: 8, DFFs: 64, Comb: 500, Seed: 77})
	if err != nil {
		return nil, err
	}
	// The chain count changes only how the cubes are split: every
	// design's Comb is built from the circuit alone, so one
	// deterministic ATPG run serves all three.
	comb, err := circuit.NewComb(gen)
	if err != nil {
		return nil, err
	}
	ares, err := atpg.Run(comb, atpg.Options{Collapse: true, Seed: 77, RandomPatterns: 16})
	if err != nil {
		return nil, err
	}
	for _, nChains := range []int{1, 2, 4} {
		design, err := scan.Insert(gen, nChains)
		if err != nil {
			return nil, err
		}
		chains, pis, err := design.ChainCubes(ares.Cubes)
		if err != nil {
			return nil, err
		}
		total, compressed := 0, 0
		streams := 0
		for _, cs := range append(chains, pis) {
			if cs.Width == 0 || len(cs.Cubes) == 0 {
				continue
			}
			streams++
			total += cs.TotalBits()
			cfg := core.Config{CharBits: 7, DictSize: 512, EntryBits: 63}
			res, err := compressSet(cs, cfg)
			if err != nil {
				return nil, err
			}
			compressed += res.Stats.CompressedBits
		}
		ratio := 1 - float64(compressed)/float64(total)
		t.Add(fmt.Sprintf("%d", nChains), streams, total, compressed, ratio)
	}
	return t, nil
}
