// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner returns a report.Table whose rows
// follow the paper's layout; cmd/experiments prints them and the root
// benchmark suite wraps them in testing.B benchmarks.
//
// Workloads come from the bench profiles; the LZW configuration for the
// headline tables matches the paper: 7-bit characters, a 64-bit
// dictionary entry (63 data bits) and the per-circuit dictionary sizes
// of Table 3. Compression ratios are always reported against the
// original (unpadded) test-set volume.
package experiments

import (
	"context"
	"fmt"
	"math/bits"

	"lzwtc/internal/ate"
	"lzwtc/internal/bench"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/decomp"
	"lzwtc/internal/lz77"
	"lzwtc/internal/mem"
	"lzwtc/internal/report"
	"lzwtc/internal/rle"
)

// LZWConfig returns the paper's Table 1/3 configuration for a circuit:
// C_C = 7, C_MDATA = 63 (a 64-bit dictionary entry) and the circuit's
// dictionary size. Circuits whose dictionary is too small to leave code
// space beyond the literals (s35932's N = 128) get a correspondingly
// smaller character size — Table 4 shows what happens otherwise.
func LZWConfig(p bench.Profile) core.Config {
	cc := 7
	for cc > 1 && 1<<uint(cc) >= p.DictSize {
		cc--
	}
	return core.Config{CharBits: cc, DictSize: p.DictSize, EntryBits: 63}
}

// lz77Config returns the reference-[8]-faithful LZ77 geometry: the
// history window is the scan chain itself, so offsets address roughly
// one previous pattern.
func lz77Config(p bench.Profile) lz77.Config {
	return lz77.Config{OffsetBits: bits.Len(uint(p.ScanLen - 1)), LenBits: 6, MinMatch: 10}
}

// compressLZW runs the full paper pipeline for one profile and returns
// the result plus the ratio against the unpadded volume.
func compressLZW(p bench.Profile, cfg core.Config) (*core.Result, float64, error) {
	res, err := compressSet(context.Background(), p.Generate(), cfg)
	if err != nil {
		return nil, 0, err
	}
	return res, ratioVs(res, p.TotalBits()), nil
}

// compressSet compresses a test set pattern by pattern, each pattern
// padded to a character boundary: the service's compression. A canceled
// ctx stops it between patterns.
func compressSet(ctx context.Context, cs *bitvec.CubeSet, cfg core.Config) (*core.Result, error) {
	return core.CompressWithPreloadObservedCtx(ctx, cs, cfg, nil, nil)
}

func ratioVs(res *core.Result, origBits int) float64 {
	if origBits == 0 {
		return 0
	}
	return 1 - float64(res.Stats.CompressedBits)/float64(origBits)
}

// Table1 reproduces "Compression Comparison Results": LZW vs LZ77 vs RLE
// on the five headline circuits.
func Table1() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 1. Compression Comparison Results",
		Headers: []string{"Test", "LZW", "LZ77", "RLE"},
		Note:    "LZW: C_C=7, 64-bit entries, N per Table 3. LZ77: ref-[8] scan-chain window. RLE: Golomb, best M.",
	}
	for _, name := range bench.Table1Names() {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
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
		rg, err := rle.Compress(stream, rle.Config{Kind: rle.Golomb})
		if err != nil {
			return nil, err
		}
		t.Add(name, lzwRatio, l7.Stats.Ratio(), rg.Stats.Ratio())
	}
	return t, nil
}

// Table2 reproduces "Download Performance Improvement Results and Memory
// Sizes": improvement at 4x/8x/10x internal clock via the cycle-accurate
// decompressor.
func Table2() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 2. Download Performance Improvement Results and Memory Sizes",
		Headers: []string{"Test", "Dict. Size", "4x", "8x", "10x"},
		Note:    "Improvement = 1 - compressed download cycles / raw scan cycles, cycle-accurate decompressor model.",
	}
	for _, name := range bench.Table1Names() {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		cfg := LZWConfig(p)
		res, _, err := compressLZW(p, cfg)
		if err != nil {
			return nil, err
		}
		words, width := decomp.MemoryGeometry(cfg)
		row := []interface{}{name, fmt.Sprintf("%dx%d", words, width)}
		for _, ratio := range []int{4, 8, 10} {
			imp, err := downloadImprovement(res, cfg, ratio, p.TotalBits())
			if err != nil {
				return nil, err
			}
			row = append(row, imp)
		}
		t.Add(row...)
	}
	return t, nil
}

func downloadImprovement(res *core.Result, cfg core.Config, ratio, rawBits int) (float64, error) {
	words, width := decomp.MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width))
	sh.Select(mem.SrcLZW)
	d, err := decomp.New(cfg, ratio, sh)
	if err != nil {
		return 0, err
	}
	_, st, err := d.Run(res.Pack(), len(res.Codes), res.InputBits)
	if err != nil {
		return 0, err
	}
	return ate.Improvement(rawBits, st.TesterCycles), nil
}

// Table3 reproduces "ISCAS89 and ITC99 Benchmark Results": don't-care
// ratio, original size, compression and dictionary size for all twelve
// circuits.
func Table3() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 3. ISCAS89 and ITC99 Benchmark Results",
		Headers: []string{"Test", "Don't Cares", "Orig. Size", "Compression", "Dict. Size"},
	}
	for _, p := range bench.Profiles() {
		cs := p.Generate()
		cfg := LZWConfig(p)
		res, err := compressSet(context.Background(), cs, cfg)
		if err != nil {
			return nil, err
		}
		name := p.Name
		if p.Suite == "ITC99" {
			name = "itc " + p.Name
		}
		t.Add(name, cs.XDensity(), p.TotalBits(), ratioVs(res, p.TotalBits()), p.DictSize)
	}
	return t, nil
}

// Table4 reproduces "Compression versus LZW Character Size": C_C in
// {1, 4, 7, 10} with N = 1024 and C_MDATA = 63. At C_C = 10 the literal
// space fills the whole dictionary and compression collapses to zero.
// The grid runs on the batch pool (see sweep.go); output is identical
// to the sequential loop for any worker count.
func Table4() (*report.Table, error) {
	return table4Ctx(context.Background(), 0)
}

// Table5 reproduces "Compression versus Entry Size": C_MDATA in
// {63, 127, 255, 511} with N = 1024 and C_C = 7. The grid runs on the
// batch pool (see sweep.go).
func Table5() (*report.Table, error) {
	return table5Ctx(context.Background(), 0)
}

func entrySweep() []int { return []int{63, 127, 255, 511} }

// Table6 reproduces "Performance versus entry size": download improvement
// at a 10x internal clock across the Table 5 entry sizes, plus the
// longest uncompressed string each test set generates (the knee of the
// curve, 483 bits for s13207 in the paper's sizing example). The grid
// runs on the batch pool (see sweep.go).
func Table6() (*report.Table, error) {
	return table6Ctx(context.Background(), 0)
}

// Names lists the runnable experiments: the paper's tables and figures
// plus the labeled extensions.
func Names() []string {
	return []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"figure3", "figure4", "figure5", "figure6", "baselines", "multichain"}
}

// run dispatches an experiment by name and returns its rendering.
func run(name string) (*report.Table, error) {
	switch name {
	case "table1":
		return Table1()
	case "table2":
		return Table2()
	case "table3":
		return Table3()
	case "table4":
		return Table4()
	case "table5":
		return Table5()
	case "table6":
		return Table6()
	case "figure3":
		return Figure3()
	case "figure4":
		return Figure4()
	case "figure5":
		return Figure5()
	case "figure6":
		return Figure6()
	case "baselines":
		return baselines()
	case "multichain":
		return multichain()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
