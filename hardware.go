package lzwtc

import (
	"fmt"

	"lzwtc/internal/core"
	"lzwtc/internal/decomp"
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
// decodes one code stream, so a Result of more than one shard is
// refused.
func SimulateDownload(r *Result, clockRatio int) (*TestSet, *DownloadStats, float64, error) {
	return SimulateDownloadObserved(r, clockRatio, nil)
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
// model runs. A multi-shard Result is refused rather than modelled by
// its first shard alone.
func (r *Result) oneStream() (*core.Result, error) {
	if len(r.Shards) != 1 {
		return nil, fmt.Errorf("lzwtc: the decompressor model runs one code stream; result has %d shards", len(r.Shards))
	}
	return r.Shards[0], nil
}
