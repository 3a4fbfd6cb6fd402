// Quickstart: compress a small scan test set with don't-care-aware LZW,
// decompress it, and verify every specified bit survived.
package main

import (
	"context"
	"fmt"
	"log"

	"lzwtc"
)

func main() {
	// A test set is patterns of 0 / 1 / X (don't-care). Real sets come
	// from ATPG (see examples/soc_flow); here we write one by hand.
	ts := lzwtc.NewTestSet(16)
	for _, p := range []string{
		"01XX10XXXXXX01XX",
		"X1XX10X0XXXXXXXX",
		"01XX1XXXXXXX01X0",
		"XXXX10X0XX1X01XX",
		"01XX10XXXXXX01XX",
		"X1XX1XX0XXXX0XXX",
	} {
		if err := ts.Add(lzwtc.MustPattern(p)); err != nil {
			log.Fatal(err)
		}
	}

	// The paper's headline configuration: 7-bit characters, a 1024-code
	// dictionary, 64-bit dictionary entries. Small sets work better with
	// a small dictionary.
	cfg := lzwtc.Config{CharBits: 4, DictSize: 64, EntryBits: 32}
	ctx := context.Background()
	res, err := lzwtc.Compress(ctx, ts, cfg, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d patterns x %d bits: %d -> %d bits (%.2f%% compression)\n",
		res.Patterns, res.Width, res.OriginalBits, res.CompressedBits(), 100*res.Ratio())
	st := res.Stats()
	fmt.Printf("codes: %d (%d literals, %d dictionary hits), %d dictionary entries built\n",
		st.CodesEmitted, st.LiteralCodes, st.StringCodes, st.DictEntries)

	// Decompression yields the fully specified stream the scan chain
	// would receive: the compressor chose every X bit.
	filled, err := res.Decompress(ctx, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range filled.Cubes {
		fmt.Printf("pattern %d: %s -> %s\n", i, ts.Cubes[i], c)
	}

	// Every specified bit of the original cubes is preserved.
	if err := lzwtc.Verify(ts, filled); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: all care bits preserved")
}
