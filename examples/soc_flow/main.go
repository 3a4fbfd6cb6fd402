// soc_flow runs the paper's Figures 1 and 2 end to end on a synthetic
// embedded core:
//
//	test insertion -> ATPG (PODEM) -> LZW compression with dynamic
//	don't-care assignment -> ATE download -> cycle-accurate hardware
//	decompression on the core's embedded memory -> scan application ->
//	response verification against the good machine.
package main

import (
	"context"
	"fmt"
	"log"

	"lzwtc"
	"lzwtc/internal/ate"
	"lzwtc/internal/atpg"
	"lzwtc/internal/circuit"
	"lzwtc/internal/compact"
	"lzwtc/internal/decomp"
	"lzwtc/internal/fault"
	"lzwtc/internal/mem"
	"lzwtc/internal/scan"
)

func main() {
	// --- Test generation workstation (Figure 1) -------------------------
	core0, err := circuit.Generate(circuit.GenConfig{
		Name: "core0", Inputs: 24, Outputs: 12, DFFs: 96, Comb: 900, Seed: 2003,
	})
	if err != nil {
		log.Fatal(err)
	}
	n := core0.Count()
	fmt.Printf("embedded core: %d gates (%d PI / %d PO / %d FF)\n", n.Gates, n.Inputs, n.Outputs, n.DFFs)

	design, err := scan.Insert(core0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-scan inserted: 1 chain, %d scan cells, pattern width %d\n",
		design.ScanCycles(), design.PatternWidth())

	ares, err := atpg.Run(design.Comb, atpg.Options{Collapse: true, RandomPatterns: 32, Seed: 2003})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d faults, %.1f%% test coverage, %d cubes, %.1f%% don't-cares\n",
		ares.Total, 100*ares.TestCoverage(), len(ares.Cubes.Cubes), 100*ares.Cubes.XDensity())

	// Static compaction, as commercial flows run after ATPG: merge
	// compatible cubes, drop patterns made redundant.
	faults := fault.Collapse(core0, fault.All(core0))
	cubes, cst, err := compact.Compact(design.Comb, ares.Cubes, faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compaction: %d -> %d patterns (%d merges, %d dropped)\n",
		cst.PatternsIn, cst.PatternsOut, cst.Merges, cst.Dropped)
	uncompacted := ares.Cubes.TotalBits()

	// --- LZW compression with dynamic don't-care assignment -------------
	cfg := lzwtc.Config{CharBits: 7, DictSize: 512, EntryBits: 63}
	res, err := lzwtc.Compress(context.Background(), cubes, cfg, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compression: %d -> %d bits (%.2f%%), dictionary entries %d\n",
		res.OriginalBits, res.CompressedBits(), 100*res.Ratio(), res.Stats().DictEntries)
	fmt.Printf("combined test-data reduction (compaction + compression): %d -> %d bits (%.2f%%)\n",
		uncompacted, res.CompressedBits(), 100*(1-float64(res.CompressedBits())/float64(uncompacted)))

	// --- Test application (Figure 2) -------------------------------------
	// The decompressor borrows the core's embedded memory through the
	// BIST-style muxes and runs from an internal clock 8x the tester's.
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	shared.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, 8, shared)
	if err != nil {
		log.Fatal(err)
	}
	sh := res.Shards[0] // Compress returns one shard: one code stream
	stream, stats, err := hw.Run(sh.Pack(), len(sh.Codes), sh.InputBits)
	if err != nil {
		log.Fatal(err)
	}
	tester := ate.DefaultTester()
	raw := res.OriginalBits
	fmt.Printf("download @%.0f MHz tester, 8x internal clock:\n", tester.ClockHz/1e6)
	fmt.Printf("  raw scan-in:  %d cycles (%v)\n", raw, tester.DownloadTime(raw))
	fmt.Printf("  compressed:   %d cycles (%v), improvement %.2f%%\n",
		stats.TesterCycles, tester.DownloadTime(stats.TesterCycles),
		100*ate.Improvement(raw, stats.TesterCycles))

	// --- Verification -----------------------------------------------------
	filled, err := lzwtc.DecompressedSetFromStream(stream, res)
	if err != nil {
		log.Fatal(err)
	}
	if err := lzwtc.Verify(cubes, filled); err != nil {
		log.Fatal(err)
	}
	cubeResp, err := design.ApplySet(cubes)
	if err != nil {
		log.Fatal(err)
	}
	filledResp, err := design.ApplySet(filled)
	if err != nil {
		log.Fatal(err)
	}
	if err := scan.ResponsesCompatible(cubeResp, filledResp); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: decompressed vectors preserve every care bit and every specified capture response")
}
