package lzwtc

import (
	"lzwtc/internal/ate"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// RunRecord is the single-document JSON schema shared by `lzwtc stats`
// and `lzwtc info -json`: both render the same field names, so scripts
// consuming one can consume the other. Fields a compressed container
// cannot reconstruct (fill counts, histograms, the decompressor run)
// are zero or omitted in the info rendering.
type RunRecord struct {
	Empty        bool                `json:"empty"`
	Patterns     int                 `json:"patterns"`
	Width        int                 `json:"width"`
	OriginalBits int                 `json:"original_bits"`
	Config       ConfigRecord        `json:"config"`
	Compress     CompressRecord      `json:"compress"`
	Decompressor *DecompressorRecord `json:"decompressor,omitempty"`
	// Shards is present for results of more than one shard: one entry
	// per pattern-group shard, in order. The Compress section carries
	// the aggregate (counts summed, maxima taken across shards).
	Shards []ShardRecord `json:"shards,omitempty"`
}

// ShardRecord summarizes one shard of a sharded compression.
type ShardRecord struct {
	Patterns       int     `json:"patterns"`
	CompressedBits int     `json:"compressed_bits"`
	Ratio          float64 `json:"ratio"`
}

// ConfigRecord renders the LZW parameters under their paper names.
type ConfigRecord struct {
	CharBits  int    `json:"char_bits"`  // C_C
	DictSize  int    `json:"dict_size"`  // N
	CodeBits  int    `json:"code_bits"`  // C_E
	EntryBits int    `json:"entry_bits"` // C_MDATA (0 = unbounded)
	Fill      string `json:"fill"`
	Tie       string `json:"tie"`
	Full      string `json:"full"`
}

// CompressRecord renders one compression run's statistics. Ratio is
// against the original (unpadded) test-set volume, as everywhere in
// the paper's tables.
type CompressRecord struct {
	Ratio          float64                      `json:"ratio"`
	InputBits      int                          `json:"input_bits"`
	Chars          int                          `json:"chars"`
	CodesEmitted   int                          `json:"codes_emitted"`
	CompressedBits int                          `json:"compressed_bits"`
	LiteralCodes   int                          `json:"literal_codes"`
	StringCodes    int                          `json:"string_codes"`
	DictEntries    int                          `json:"dict_entries"`
	DictResets     int                          `json:"dict_resets"`
	MaxMatchChars  int                          `json:"max_match_chars"`
	MaxEntryChars  int                          `json:"max_entry_chars"`
	ResidualFills  int                          `json:"residual_fills"`
	DynamicFills   int                          `json:"dynamic_fills"`
	MatchLenHist   *telemetry.HistogramSnapshot `json:"match_len_hist,omitempty"`
	OccupancyHist  *telemetry.HistogramSnapshot `json:"dict_occupancy_hist,omitempty"`

	// Dictionary-arena effectiveness: how many dictionaries this run
	// recycled from the pool versus allocated fresh. Only populated from
	// a registry snapshot (AttachHistograms); zero values are omitted.
	DictPoolRecycles int64 `json:"dict_pool_recycles,omitempty"`
	DictPoolMisses   int64 `json:"dict_pool_misses,omitempty"`
}

// DecompressorRecord renders one cycle-accurate download simulation.
type DecompressorRecord struct {
	ClockRatio     int     `json:"clock_ratio"`
	InternalCycles int     `json:"internal_cycles"`
	TesterCycles   int     `json:"tester_cycles"`
	LoadStalls     int     `json:"load_stalls"`
	DecodeCycles   int     `json:"decode_cycles"`
	WriteCycles    int     `json:"write_cycles"`
	ShiftCycles    int     `json:"shift_cycles"`
	MemReads       int     `json:"mem_reads"`
	MemWrites      int     `json:"mem_writes"`
	OutputBits     int     `json:"output_bits"`
	CodesDecoded   int     `json:"codes_decoded"`
	Utilization    float64 `json:"utilization"`
	Improvement    float64 `json:"improvement"`
	MemoryWords    int     `json:"memory_words"`
	MemoryWidth    int     `json:"memory_width"`
}

// NewRunRecord builds the record for a compressed result. The compress
// section carries the Result's aggregate Stats — complete after a live
// compression, partial after decoding a container. A Result of more
// than one shard also gets the per-shard breakdown in Shards.
func NewRunRecord(r *Result) RunRecord {
	cfg := r.Cfg
	st := r.Stats()
	rec := RunRecord{
		Empty:        r.OriginalBits == 0 || st.Empty(),
		Patterns:     r.Patterns,
		Width:        r.Width,
		OriginalBits: r.OriginalBits,
		Config: ConfigRecord{
			CharBits:  cfg.CharBits,
			DictSize:  cfg.DictSize,
			CodeBits:  cfg.CodeBits(),
			EntryBits: cfg.EntryBits,
			Fill:      cfg.Fill.String(),
			Tie:       cfg.Tie.String(),
			Full:      cfg.Full.String(),
		},
		Compress: CompressRecord{
			Ratio:          r.Ratio(),
			InputBits:      st.InputBits,
			Chars:          st.Chars,
			CodesEmitted:   st.CodesEmitted,
			CompressedBits: st.CompressedBits,
			LiteralCodes:   st.LiteralCodes,
			StringCodes:    st.StringCodes,
			DictEntries:    st.DictEntries,
			DictResets:     st.DictResets,
			MaxMatchChars:  st.MaxMatchChars,
			MaxEntryChars:  st.MaxEntryChars,
			ResidualFills:  st.ResidualFills,
			DynamicFills:   st.DynamicFills,
		},
	}
	if len(r.Shards) > 1 {
		rec.Shards = make([]ShardRecord, len(r.Shards))
		for i, sh := range r.Shards {
			bits := r.ShardPatterns[i] * r.Width
			ratio := 0.0
			if bits > 0 {
				ratio = 1 - float64(sh.Stats.CompressedBits)/float64(bits)
			}
			rec.Shards[i] = ShardRecord{Patterns: r.ShardPatterns[i], CompressedBits: sh.Stats.CompressedBits, Ratio: ratio}
		}
	}
	return rec
}

// AttachHistograms copies the compressor's match-length and
// dictionary-occupancy histograms — and the dictionary-arena counters —
// out of a registry snapshot into the record (no-ops for metrics the
// snapshot lacks).
func (r *RunRecord) AttachHistograms(snap telemetry.Snapshot) {
	if h, ok := snap.HistogramNamed(core.MetricCompressMatchLen); ok {
		r.Compress.MatchLenHist = &h
	}
	if h, ok := snap.HistogramNamed(core.MetricCompressOccupancy); ok {
		r.Compress.OccupancyHist = &h
	}
	r.Compress.DictPoolRecycles = snap.CounterValue(core.MetricDictPoolRecycles)
	r.Compress.DictPoolMisses = snap.CounterValue(core.MetricDictPoolMisses)
}

// AttachDownload records a download simulation's cycle accounting.
func (r *RunRecord) AttachDownload(clockRatio int, st *DownloadStats) {
	cfg := r.coreConfig()
	r.Decompressor = &DecompressorRecord{
		ClockRatio:     clockRatio,
		InternalCycles: st.InternalCycles,
		TesterCycles:   st.TesterCycles,
		LoadStalls:     st.LoadStalls,
		DecodeCycles:   st.DecodeCycles,
		WriteCycles:    st.WriteCycles,
		ShiftCycles:    st.ShiftCycles,
		MemReads:       st.MemReads,
		MemWrites:      st.MemWrites,
		OutputBits:     st.OutputBits,
		CodesDecoded:   st.CodesDecoded,
		Utilization:    st.Utilization(),
		Improvement:    ate.Improvement(r.OriginalBits, st.TesterCycles),
		MemoryWords:    cfg.DictSize,
		MemoryWidth:    cfg.LenBits() + cfg.EntryBits,
	}
}

// coreConfig rebuilds the core Config the record describes, for sizing
// derived quantities.
func (r *RunRecord) coreConfig() Config {
	return Config{CharBits: r.Config.CharBits, DictSize: r.Config.DictSize, EntryBits: r.Config.EntryBits}
}
