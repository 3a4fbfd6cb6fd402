// param_tuning reproduces the paper's Section 6 engineering-tradeoff
// exercise: given an embedded-memory budget, sweep the LZW configurator
// parameters (N, C_C, C_MDATA) for one core's test set and pick the
// configuration with the best compression whose dictionary fits.
//
// The paper's example: for s13207 with N=1024 and C_C=7, optimal
// compression wants C_MDATA >= 483, i.e. a 1024 x 490-bit memory.
package main

import (
	"context"
	"fmt"
	"log"

	"lzwtc"
	"lzwtc/internal/bench"
	"lzwtc/internal/core"
)

func main() {
	ctx := context.Background()
	p, err := bench.ByName("s13207")
	if err != nil {
		log.Fatal(err)
	}
	cubes := p.Generate()
	fmt.Printf("%s: %d patterns x %d bits, %.1f%% don't-cares\n",
		p.Name, len(cubes.Cubes), cubes.Width, 100*cubes.XDensity())

	// The longest-string demand (Table 6): compress once with unbounded
	// entries to see how much C_MDATA the test set could use.
	unbounded := lzwtc.Config{CharBits: 7, DictSize: 1024, EntryBits: 0}
	ur, err := lzwtc.Compress(ctx, cubes, unbounded, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	longest := ur.Stats().MaxEntryChars * 7
	fmt.Printf("longest uncompressed string demand: %d bits (paper's sizing example: 483)\n\n", longest)

	budgets := []int{1 << 16, 1 << 18, 1 << 20} // memory budgets in bits
	for _, budget := range budgets {
		best, bestRatio := core.Config{}, -1.0
		for _, n := range []int{256, 512, 1024, 2048} {
			for _, cc := range []int{4, 7, 8} {
				if n <= 1<<uint(cc) {
					continue // no code space left
				}
				for _, entry := range []int{63, 127, 255, 511} {
					cfg := lzwtc.Config{CharBits: cc, DictSize: n, EntryBits: entry}
					if cfg.MemoryBits() > budget {
						continue
					}
					res, err := lzwtc.Compress(ctx, cubes, cfg, lzwtc.Options{})
					if err != nil {
						log.Fatal(err)
					}
					if r := res.Ratio(); r > bestRatio {
						best, bestRatio = cfg, r
					}
				}
			}
		}
		if bestRatio < 0 {
			fmt.Printf("budget %7d bits: no configuration fits\n", budget)
			continue
		}
		fmt.Printf("budget %7d bits: best N=%-4d C_C=%d C_MDATA=%-3d -> %dx%d memory (%d bits), compression %.2f%%\n",
			budget, best.DictSize, best.CharBits, best.EntryBits,
			best.DictSize, best.LenBits()+best.EntryBits, best.MemoryBits(), 100*bestRatio)
	}

	// The paper's exact sizing example.
	paper := lzwtc.Config{CharBits: 7, DictSize: 1024, EntryBits: 483}
	res, err := lzwtc.Compress(ctx, cubes, paper, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npaper's s13207 sizing (N=1024, C_C=7, C_MDATA=483): %dx%d memory, compression %.2f%%\n",
		paper.DictSize, paper.LenBits()+paper.EntryBits, 100*res.Ratio())
}
