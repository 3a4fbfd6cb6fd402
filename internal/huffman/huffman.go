// Package huffman implements the statistical-coding baseline of the
// paper's related work (refs [5] and [15]: Jas, Ghosh-Dastidar & Touba,
// "Scan vector compression/decompression using statistical coding"):
// selective Huffman coding of fixed-size scan blocks.
//
// The stream is cut into b-bit blocks. Don't-care bits are assigned
// greedily so each block maps onto the most frequent already-seen
// compatible pattern — the paper's observation that X assignment must
// favour the compression scheme. The K most frequent patterns receive
// Huffman codewords (prefixed '1'); all other blocks are emitted raw
// (prefixed '0'), which keeps the decoder a small fixed table as the
// original hardware scheme requires.
package huffman

import (
	"container/heap"
	"fmt"
	"sort"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/invariant"
)

// Config sets the block geometry and dictionary size.
type Config struct {
	// BlockBits is the scan-block size b (1..16).
	BlockBits int
	// Coded is K, the number of distinct patterns given Huffman codes;
	// the rest are sent raw. 0 selects 16.
	Coded int
}

// DefaultConfig returns the geometry the VTS'99 paper evaluates: 8-bit
// blocks, 16 coded patterns.
func DefaultConfig() Config { return Config{BlockBits: 8, Coded: 16} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockBits < 1 || c.BlockBits > 16 {
		return fmt.Errorf("huffman: BlockBits %d out of range [1,16]", c.BlockBits)
	}
	if c.Coded < 0 || (c.Coded > 1<<uint(c.BlockBits)) {
		return fmt.Errorf("huffman: Coded %d out of range [0,2^%d]", c.Coded, c.BlockBits)
	}
	return nil
}

func (c Config) coded() int {
	if c.Coded == 0 {
		return 16
	}
	return c.Coded
}

// Stats summarizes one compression run.
type Stats struct {
	InputBits      int
	CompressedBits int
	Blocks         int
	CodedBlocks    int // blocks hit by the selective dictionary
	RawBlocks      int
	AssignedToFreq int // X-laden blocks mapped onto frequent patterns
	TableBits      int // decoder table cost (patterns + code lengths)
}

// Ratio returns the compression ratio (1 - compressed/original),
// including the decoder-table transfer cost.
func (s Stats) Ratio() float64 {
	if s.InputBits == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBits)/float64(s.InputBits)
}

// Result is a compressed stream plus everything needed to invert it.
type Result struct {
	Cfg       Config
	Data      []byte
	BitLen    int
	InputBits int
	// Table is the selective dictionary in rank order; codewords are the
	// canonical Huffman codes over Lens.
	Table []uint16
	Lens  []int
	Stats Stats
}

// Compress encodes a three-valued stream.
func Compress(stream *bitvec.Vector, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := cfg.BlockBits
	nBlocks := (stream.Len() + b - 1) / b
	res := &Result{Cfg: cfg, InputBits: stream.Len()}
	res.Stats.InputBits = stream.Len()
	res.Stats.Blocks = nBlocks
	if nBlocks == 0 {
		return res, nil
	}

	// Pass 1: greedy X assignment toward frequent patterns.
	blocks := make([]uint16, nBlocks)
	freq := map[uint16]int{}
	full := uint16(1)<<uint(b) - 1
	for i := 0; i < nBlocks; i++ {
		val, care := stream.Chunk(i*b, b)
		concrete, matched := assign(uint16(val), uint16(care), full, freq)
		if matched {
			res.Stats.AssignedToFreq++
		}
		blocks[i] = concrete
		freq[concrete]++
	}

	// Pass 2: pick the K most frequent patterns and build a Huffman code.
	type pf struct {
		pat uint16
		n   int
	}
	all := make([]pf, 0, len(freq))
	for p, n := range freq {
		all = append(all, pf{p, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].pat < all[j].pat
	})
	k := cfg.coded()
	if k > len(all) {
		k = len(all)
	}
	res.Table = make([]uint16, k)
	weights := make([]int, k)
	rank := map[uint16]int{}
	for i := 0; i < k; i++ {
		res.Table[i] = all[i].pat
		weights[i] = all[i].n
		rank[all[i].pat] = i
	}
	res.Lens = codeLengths(weights)
	codes := canonicalCodes(res.Lens)

	// Pass 3: emit. '1' + Huffman code for table hits, '0' + raw block
	// otherwise.
	var w bitio.Writer
	for _, blk := range blocks {
		if r, ok := rank[blk]; ok {
			w.WriteBit(1)
			// Huffman depths stay far below 64 for any realistic
			// weight distribution; Width asserts it for the ones
			// codeLengths could theoretically produce.
			w.WriteBits(uint64(codes[r]), invariant.Width(res.Lens[r]))
			res.Stats.CodedBlocks++
		} else {
			w.WriteBit(0)
			w.WriteBits(uint64(blk), b)
			res.Stats.RawBlocks++
		}
	}
	res.Data, res.BitLen = w.Bytes(), w.BitLen()
	// Decoder table cost: each entry ships its pattern and code length.
	res.Stats.TableBits = k * (b + 5)
	res.Stats.CompressedBits = res.BitLen + res.Stats.TableBits
	return res, nil
}

// assign finds the most frequent known pattern compatible with the
// three-valued block, or 0-fills when none exists.
func assign(val, care, full uint16, freq map[uint16]int) (uint16, bool) {
	if care == full {
		return val, false
	}
	best, bestN := uint16(0), -1
	for pat, n := range freq {
		if pat&care == val && (n > bestN || (n == bestN && pat < best)) {
			best, bestN = pat, n
		}
	}
	if bestN >= 0 {
		return best, true
	}
	return val, false // X bits already zero in val
}

// decompress inverts a compressed stream.
func decompress(res *Result, outBits int) (*bitvec.Vector, error) {
	if err := res.Cfg.Validate(); err != nil {
		return nil, err
	}
	b := res.Cfg.BlockBits
	codes := canonicalCodes(res.Lens)
	// Build a decode map from (len, code) to rank.
	type key struct {
		l int
		c uint32
	}
	dec := map[key]int{}
	for r, l := range res.Lens {
		dec[key{l, codes[r]}] = r
	}
	rd := bitio.NewReader(res.Data, res.BitLen)
	out := bitvec.New(outBits)
	pos := 0
	for pos < outBits {
		flag, err := rd.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("huffman: truncated stream at bit %d: %w", pos, err)
		}
		var blk uint64
		if flag == 0 {
			blk, err = rd.ReadBits(b)
			if err != nil {
				return nil, fmt.Errorf("huffman: truncated raw block at bit %d: %w", pos, err)
			}
		} else {
			cur, l := uint32(0), 0
			for {
				bit, err := rd.ReadBit()
				if err != nil {
					return nil, fmt.Errorf("huffman: truncated codeword at bit %d: %w", pos, err)
				}
				cur = cur<<1 | uint32(bit)
				l++
				if r, ok := dec[key{l, cur}]; ok {
					blk = uint64(res.Table[r])
					break
				}
				if l > 32 {
					return nil, fmt.Errorf("huffman: undecodable codeword at bit %d", pos)
				}
			}
		}
		out.SetChunk(pos, b, blk)
		pos += b
	}
	return out, nil
}

// codeLengths builds Huffman code lengths for the given weights
// (package-sorted tie-breaks keep it deterministic). A single symbol
// gets length 1.
func codeLengths(weights []int) []int {
	n := len(weights)
	lens := make([]int, n)
	if n == 0 {
		return lens
	}
	if n == 1 {
		lens[0] = 1
		return lens
	}
	type node struct {
		w, id       int
		left, right int // -1 for leaves
	}
	nodes := make([]node, 0, 2*n)
	h := &nodeHeap{}
	for i, w := range weights {
		nodes = append(nodes, node{w: w, id: i, left: -1, right: -1})
		heap.Push(h, heapItem{w: w, seq: i, idx: i})
	}
	seq := n
	for h.Len() > 1 {
		a := heap.Pop(h).(heapItem)
		bb := heap.Pop(h).(heapItem)
		nodes = append(nodes, node{w: a.w + bb.w, left: a.idx, right: bb.idx})
		heap.Push(h, heapItem{w: a.w + bb.w, seq: seq, idx: len(nodes) - 1})
		seq++
	}
	root := heap.Pop(h).(heapItem).idx
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		nd := nodes[idx]
		if nd.left < 0 {
			lens[nd.id] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
	return lens
}

// canonicalCodes assigns canonical Huffman codewords for the lengths.
func canonicalCodes(lens []int) []uint32 {
	codes := make([]uint32, len(lens))
	type sym struct{ l, i int }
	order := make([]sym, 0, len(lens))
	for i, l := range lens {
		order = append(order, sym{l, i})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].l != order[b].l {
			return order[a].l < order[b].l
		}
		return order[a].i < order[b].i
	})
	code, prevLen := uint32(0), 0
	for _, s := range order {
		code <<= uint(s.l - prevLen)
		codes[s.i] = code
		code++
		prevLen = s.l
	}
	return codes
}

type heapItem struct{ w, seq, idx int }

type nodeHeap []heapItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
