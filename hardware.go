package lzwtc

import (
	"fmt"

	"lzwtc/internal/ate"
	"lzwtc/internal/core"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
)

// DownloadStats is the cycle accounting of a simulated test download
// through the hardware decompressor.
type DownloadStats = decomp.Stats

// SimulateDownload runs the compressed test set through the
// cycle-accurate hardware decompressor model (Figure 5 of the paper) at
// the given internal-to-tester clock ratio, on a dedicated dictionary
// memory sized from the configuration. It returns the fully specified
// test set delivered to the scan chain, the cycle statistics, and the
// download-time improvement over raw scan-in
// (1 - compressedCycles/rawCycles).
//
// The configuration must be hardware-realizable: bounded entries
// (EntryBits > 0) and the freeze dictionary-full policy. The model
// decodes one code stream from an empty dictionary, so a Result of
// more than one shard, or one naming a dictionary, is refused. A
// non-nil rec gets decomp.pattern events (cycles, memory reads and
// load stalls per scan pattern) and the run totals.
func SimulateDownload(r *Result, clockRatio int, rec *Recorder) (*TestSet, *DownloadStats, float64, error) {
	sh, err := r.oneStream()
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := r.Cfg
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	shared.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, clockRatio, shared)
	if err != nil {
		return nil, nil, 0, err
	}
	hw.SetRecorder(rec)
	// Pattern boundaries in the scan stream fall on the aligned width
	// (each pattern is padded to a character boundary).
	hw.SetPatternBits(cfg.PaddedWidth(r.Width))
	stream, stats, err := hw.Run(sh.Pack(), len(sh.Codes), sh.InputBits)
	if err != nil {
		return nil, nil, 0, err
	}
	ts, err := DecompressedSetFromStream(stream, r)
	if err != nil {
		return nil, nil, 0, err
	}
	return ts, stats, ate.Improvement(r.OriginalBits, stats.TesterCycles), nil
}

// PredictDownloadCycles computes the download time in tester cycles in
// closed form, without running the cycle simulation — useful for
// parameter sweeps. It agrees exactly with SimulateDownload.
func PredictDownloadCycles(r *Result, clockRatio int) (int, error) {
	sh, err := r.oneStream()
	if err != nil {
		return 0, err
	}
	tc, _, err := decomp.Predict(sh.Codes, r.Cfg, clockRatio)
	return tc, err
}

// oneStream returns the Result's only code stream, the input the cycle
// model runs from an empty dictionary. A multi-shard Result is refused
// rather than modelled by its first shard alone, and one naming a
// dictionary rather than modelled cold.
func (r *Result) oneStream() (*core.Result, error) {
	if r.Dict != nil {
		return nil, fmt.Errorf("lzwtc: result references dictionary %x and the decompressor model starts from an empty dictionary: %w",
			r.Dict.Key, ErrDictNotFound)
	}
	if len(r.Shards) != 1 {
		return nil, fmt.Errorf("lzwtc: the decompressor model runs one code stream; result has %d shards", len(r.Shards))
	}
	return r.Shards[0], nil
}
