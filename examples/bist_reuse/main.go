// bist_reuse demonstrates the paper's Figure 6: the LZW decompressor
// borrows an existing embedded memory through the same input-mux layer
// memory BIST already uses, so the production-test circuitry adds almost
// no dedicated RAM.
package main

import (
	"context"
	"fmt"
	"log"

	"lzwtc"
	"lzwtc/internal/core"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
)

func main() {
	cfg := core.Config{CharBits: 7, DictSize: 256, EntryBits: 63}
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	fmt.Printf("embedded memory: %d x %d bits (%d bits), port owner: %v\n",
		words, width, shared.RAM().Bits(), shared.Owner())

	// 1. In mission mode the test logic is locked out.
	if _, err := shared.Read(mem.SrcLZW, 0, nil); err != nil {
		fmt.Println("mission mode: LZW port access rejected ✔")
	}

	// 2. Production test starts with memory BIST (March C-).
	shared.Select(mem.SrcBIST)
	res, err := mem.MarchCMinus(shared)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory BIST: %v\n", res)

	// 2b. A faulty die: the BIST localizes the bad cell, and the part is
	// rejected before the scan test even starts.
	shared.RAM().InjectStuckAt(123, 17, 1)
	res, err = mem.MarchCMinus(shared)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory BIST with injected stuck-at: %v\n", res)
	shared.RAM().ClearFaults()

	// 3. The same memory now holds the LZW dictionary for scan-test
	// decompression.
	shared.Select(mem.SrcLZW)
	ts := lzwtc.NewTestSet(28)
	for _, p := range []string{
		"0101XXXX10XX0101XXXX10XXXXXX",
		"X101XXXX10XX01XXXXXX10XX01XX",
		"0101XXXX1XXX0101XXXX10XXXXXX",
		"01XXXXXX10XX0101XXXX1XXX01XX",
	} {
		if err := ts.Add(lzwtc.MustPattern(p)); err != nil {
			log.Fatal(err)
		}
	}
	cres, err := lzwtc.Compress(context.Background(), ts, cfg, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	hw, err := decomp.New(cfg, 8, shared)
	if err != nil {
		log.Fatal(err)
	}
	sh := cres.Shards[0] // Compress returns one shard: one code stream
	stream, stats, err := hw.Run(sh.Pack(), len(sh.Codes), sh.InputBits)
	if err != nil {
		log.Fatal(err)
	}
	filled, err := lzwtc.DecompressedSetFromStream(stream, cres)
	if err != nil {
		log.Fatal(err)
	}
	if err := lzwtc.Verify(ts, filled); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LZW decompression through the shared memory: %d codes, %d dictionary reads, %d writes ✔\n",
		stats.CodesDecoded, stats.MemReads, stats.MemWrites)

	// 4. Back to mission mode; the functional logic owns the port again.
	shared.Select(mem.SrcFunctional)
	fmt.Printf("port returned to %v mode\n", shared.Owner())
}
