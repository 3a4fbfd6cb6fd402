package core

import (
	"math/bits"

	"lzwtc/internal/invariant"
)

// dict is the shared dictionary model used by both the compressor and the
// software decompressor. Codes below firstCode are literals; string codes
// record their parent code, last character and length, which is all either
// direction needs (the compressor walks forward through children, the
// decompressor materializes strings by walking parents, or reads them
// whole from the packed-string column when entries fit one word).
//
// The child index is flat and bit-sliced: a concrete (parent, char)
// lookup is one probe of an open-addressed table, and an X-laden lookup
// runs a word-parallel kernel over the parent's children. Children are
// batched, in creation (= ascending code) order, into 64-lane plane
// blocks — per-bit value and is-X planes plus a lane → code column — so
// "which of these 64 children is compatible with the query cube" is a
// couple of AND/ANDN/XOR word operations per cared query bit
// (bitvec.MatchLanes), and the TieOldest/TieNewest/TieWidest policies
// resolve over the surviving bitmask instead of per-candidate probes.
// The result is identical to the historical per-node map scan (see
// refMatcher, the retained reference oracle).
type dict struct {
	cfg       Config
	firstCode Code
	next      Code
	resets    int
	maxChars  int // cfg.MaxChars(), hoisted off the per-add path

	// Per-code metadata, indexed by code. Literal codes are implicit:
	// parent invalid, lastChar = code, length 1.
	parent    []Code
	lastChar  []uint64
	firstChar []uint64
	length    []int32

	// str is the packed-string column of the paper's Fig. 5 memory: when
	// every entry fits one 64-bit word (MaxChars·C_C ≤ 64, see
	// packsStrings), str[c] holds code c's whole string, character i at
	// bits [i·C_C, (i+1)·C_C), LSB-first — the stream order of the
	// decoded output — so a decoder fetches a string with one load. It is
	// empty for wider and unbounded configurations, which keep the parent
	// walk (stringOf). commitAdd fills it; capacity is retained across
	// reinit like every other column.
	str []uint64

	// Bit-sliced child index. chain[c] bundles code c's child-chain
	// bookkeeping — first and last plane block plus population — into one
	// cache line per parent. count is the single source of truth for
	// "has children": head/tail are only read when it is non-zero and are
	// (re)written by the first append of each epoch, so neither reset nor
	// commitAdd sweeps them. String-code count slots are initialized by
	// commitAdd when their code is assigned.
	chain []chainHdr

	// Block arena backing every chain: block b owns lanes
	// blkCodes[64b : 64b+64] and plane words blkVal/blkX[cc·b : cc·b+cc]
	// (cc = CharBits, one word per character bit). Blocks are handed out
	// in order and recycled wholesale on reset; capacities are retained
	// across reinit, so a recycled dictionary re-slices rather than
	// reallocates (stride changes with CharBits are just a new view).
	//
	// Planes are transposed lazily: an append records only the lane's
	// child code, and the first masked lookup that touches the block
	// transposes the outstanding characters (syncPlanes). blkPlane tracks
	// how many lanes each block has transposed, so workloads that never
	// issue X-laden lookups — decompression, X-free compression — pay
	// nothing for plane maintenance.
	blkHdr   []blockHdr // per-block chain link + fill (one cache line)
	blkCodes []Code     // lane → child code
	blkVal   []uint64   // value planes, bit b of every lane's character
	blkX     []uint64   // is-X planes (all zero for concrete characters)
	nBlocks  int
	usedBlk  int

	// directBlocks pins parent p's first plane block to block index p
	// (DictSize ≤ maxDirectBlocks, which covers every practical
	// configuration). The match kernel can then compute a parent's plane
	// and lane-code addresses from the code alone — those loads issue in
	// parallel with the chain-header load instead of chained behind it,
	// removing one full memory-latency level from the per-character
	// lookup. Overflow blocks (chains past 64 children) come from the
	// arena region at overflowBase = DictSize. Larger dictionaries keep
	// the dense on-demand arena (overflowBase = 0) and the head-indexed
	// kernel.
	directBlocks bool
	overflowBase int

	// table is the (parent, char) → child probe table: open addressing,
	// linear probing, ≤50% load by construction (sized ≥ 2× the maximum
	// string-entry count). Cleared wholesale on reset.
	table []childSlot
	shift uint // 64 - log2(len(table)), for multiply-shift hashing

	// noChildIndex suspends child-index maintenance (lane appends, probe
	// table, oracle mirror) for dictionaries that will never be asked for
	// a child. The decompressor sets it: it only replays adds, so paying
	// for an index nobody queries would be pure overhead. reinit clears
	// it, so a recycled dictionary always starts indexed. findChild on a
	// noChildIndex dictionary is a caller bug.
	noChildIndex bool

	// anyMasked flips true on the first masked (X-laden) lookup and makes
	// commitAdd transpose its lane into the planes eagerly while the
	// block's header and character are still in registers. Without it the
	// planes go stale one lane per add and almost every masked query pays
	// a syncPlanes call that reloads what the add just had in cache. An
	// X-free workload never sets it and keeps the zero-maintenance lazy
	// path. reinit clears it; reset deliberately does not (the workload's
	// character doesn't change at a dictionary-full boundary).
	anyMasked bool

	// hasXLanes marks that some plane block carries a lane with is-X bits
	// set. Production dictionaries never do — the compressor concretizes
	// every character before adding and the decompressor replays those —
	// so the kernel skips the is-X plane load entirely (and the add path
	// skips zeroing it) unless a test has built three-valued lanes
	// directly and raised the flag.
	hasXLanes bool

	// tableLive is the probe table's counterpart to anyMasked: while
	// false the table's contents are garbage and commitAdd skips the
	// insert; the first exact lookup rebuilds the table from the live
	// codes and flips it. Masked-heavy workloads (exact queries need
	// every character bit cared) thus never pay the per-add insert or the
	// per-reset table sweep. reset and reinit clear it, so each epoch
	// re-decides lazily.
	tableLive bool

	// ref is the retained map-based matcher, maintained and cross-checked
	// against every lookup under the lzwtc_dictoracle build tag (nil
	// otherwise).
	ref *refMatcher
}

// childSlot is one probe-table entry. key 0 marks an empty slot; live
// keys are childKey values, which are always non-zero.
type childSlot struct {
	key   uint64
	child Code
}

// blockHdr is one plane block's bookkeeping, packed so an append or a
// chain hop touches a single cache line: the next block of the chain
// (noBlock at the tail), the lanes used, and the lanes transposed into
// the planes so far (≤ len; see syncPlanes).
type blockHdr struct {
	next  int32
	len   int32
	plane int32
}

// chainHdr is one code's child-chain bookkeeping: the first and last
// plane block of its chain, the number of children, and the oldest
// child's code. head, tail and first carry no sentinel — they are
// meaningful only while count is non-zero. first exists for the all-X
// TieOldest lookup (a large share of queries on X-dense streams), which
// it answers with this one header load instead of a dependent
// head-block → lane-0 chase.
type chainHdr struct {
	head  int32
	tail  int32
	count int32
	first Code
}

const noCode = ^Code(0)

// noBlock terminates a plane-block chain.
const noBlock = int32(-1)

// blockLanes is the plane-block width: one lane per child, one word per
// character bit-plane.
const blockLanes = 64

// maxPreallocBlocks caps the up-front plane-block reservation. Every
// configuration in practical use (DictSize ≤ a few thousand) fits its
// worst-case chain layout below the cap and is allocation-free after
// construction; pathological dictionaries (up to 2^24 codes) grow the
// arena on demand instead of reserving gigabytes.
const maxPreallocBlocks = 4096

// maxDirectBlocks bounds the code-indexed block layout (directBlocks):
// a dictionary this size or smaller reserves one first block per code —
// at the bound that is ~4096 × (256 B codes + C_C·8 B planes), still a
// ~1 MB-scale arena — and buys the kernel its parallel address
// computation. Beyond it the reservation would grow with DictSize into
// the gigabytes, so large dictionaries fall back to the dense arena.
const maxDirectBlocks = maxPreallocBlocks

// hashMult is the multiply-shift constant (2^64/φ, the usual Fibonacci
// hashing multiplier).
const hashMult = 0x9E3779B97F4A7C15

// childKey packs a (parent, char) edge into a non-zero probe-table key.
// CharBits ≤ 16 bounds char below 2^16; the +1 keeps key 0 reserved for
// empty slots.
func childKey(parent Code, char uint64) uint64 {
	return (uint64(parent)+1)<<16 | char
}

// tableSizeFor returns the probe-table size for a configuration: a power
// of two at least twice the maximum number of string entries (every
// child edge corresponds to one string code), minimum 8.
func tableSizeFor(cfg Config) int {
	entries := cfg.DictSize - cfg.Literals()
	size := 8
	for size < 2*entries {
		size *= 2
	}
	return size
}

// directLayout reports whether cfg uses the code-indexed block layout.
func directLayout(cfg Config) bool { return cfg.DictSize <= maxDirectBlocks }

// blocksTarget returns the plane-block reservation for a configuration.
// Under the direct layout every code owns its first block (index = code)
// and the overflow region holds the spill blocks (≤ entries/64, since a
// chain only spills past 64 children). The dense layout's worst case is
// one partially filled block per parent plus the full blocks (≤ entries
// + entries/64), clamped to maxPreallocBlocks.
func blocksTarget(cfg Config) int {
	entries := cfg.DictSize - cfg.Literals()
	if entries == 0 {
		return 0
	}
	if directLayout(cfg) {
		return cfg.DictSize + entries/blockLanes + 1
	}
	t := entries + entries/blockLanes + 1
	if t > maxPreallocBlocks {
		t = maxPreallocBlocks
	}
	return t
}

func newDict(cfg Config) *dict {
	n := cfg.DictSize
	ts := tableSizeFor(cfg)
	d := &dict{
		parent:    make([]Code, n),
		lastChar:  make([]uint64, n),
		firstChar: make([]uint64, n),
		length:    make([]int32, n),
		chain:     make([]chainHdr, n),
		table:     make([]childSlot, ts),
	}
	d.reinit(cfg)
	return d
}

// packsStrings reports whether every dictionary string under cfg fits
// one 64-bit word, i.e. whether the dictionary keeps the packed-string
// column. Unbounded configurations (EntryBits 0) never do.
func packsStrings(cfg Config) bool {
	return cfg.MaxChars()*cfg.CharBits <= 64
}

// fits reports whether d's backing storage can host cfg without
// reallocating the per-code columns (the arena recycle check). The block
// arena adapts by re-slicing and grows on demand, so it never disqualifies
// a recycle.
func (d *dict) fits(cfg Config) bool {
	return cap(d.parent) >= cfg.DictSize && len(d.table) >= tableSizeFor(cfg)
}

// reinit re-derives every view and clears all state for cfg, reusing the
// existing backing arrays. newDict and the arena both funnel through it,
// so a recycled dictionary is indistinguishable from a fresh one.
func (d *dict) reinit(cfg Config) {
	n := cfg.DictSize
	d.cfg = cfg
	d.firstCode = Code(cfg.Literals())
	d.resets = 0
	d.parent = d.parent[:cap(d.parent)][:n]
	d.lastChar = d.lastChar[:cap(d.lastChar)][:n]
	d.firstChar = d.firstChar[:cap(d.firstChar)][:n]
	d.length = d.length[:cap(d.length)][:n]
	d.chain = d.chain[:cap(d.chain)][:n]
	d.str = d.str[:0]
	if packsStrings(cfg) {
		if cap(d.str) < n {
			d.str = make([]uint64, n)
		}
		d.str = d.str[:n]
		for c := range cfg.Literals() {
			d.str[c] = uint64(c) // a literal's string is its one character
		}
	}
	d.shift = uint(64 - bits.TrailingZeros(uint(len(d.table))))
	d.directBlocks = directLayout(cfg)
	d.overflowBase = 0
	if d.directBlocks {
		d.overflowBase = n
	}
	d.usedBlk = d.overflowBase
	d.resliceBlocks()
	if t := blocksTarget(cfg); d.nBlocks < t {
		d.growBlocksTo(t)
	}
	for c := 0; c < cfg.Literals(); c++ {
		d.parent[c] = noCode
		d.lastChar[c] = uint64(c)
		d.firstChar[c] = uint64(c)
		d.length[c] = 1
		d.chain[c].count = 0
	}
	d.next = d.firstCode
	d.maxChars = cfg.MaxChars()
	d.noChildIndex = false
	d.anyMasked = false
	d.hasXLanes = false
	d.tableLive = false
	if dictOracle {
		d.ref = newRefMatcher(cfg)
	}
}

// resliceBlocks re-derives the block-arena capacity from the backing
// arrays under the current CharBits stride (a dictionary recycled at a
// different character width sees the same words through a new view).
func (d *dict) resliceBlocks() {
	cc := d.cfg.CharBits
	d.blkHdr = d.blkHdr[:cap(d.blkHdr)]
	d.blkCodes = d.blkCodes[:cap(d.blkCodes)]
	d.blkVal = d.blkVal[:cap(d.blkVal)]
	d.blkX = d.blkX[:cap(d.blkX)]
	n := len(d.blkHdr)
	if m := len(d.blkCodes) / blockLanes; m < n {
		n = m
	}
	if m := len(d.blkVal) / cc; m < n {
		n = m
	}
	if m := len(d.blkX) / cc; m < n {
		n = m
	}
	d.nBlocks = n
}

// growBlocksTo extends the block arena to at least n blocks, preserving
// the blocks already handed out. Growth only happens when a dictionary
// outruns its blocksTarget reservation (the maxPreallocBlocks clamp);
// the enlarged arrays stay with the dict through the arena, so steady
// state allocates nothing.
func (d *dict) growBlocksTo(n int) {
	cc := d.cfg.CharBits
	if cap(d.blkHdr) < n {
		nw := make([]blockHdr, n)
		copy(nw, d.blkHdr)
		d.blkHdr = nw
	}
	if cap(d.blkCodes) < n*blockLanes {
		nw := make([]Code, n*blockLanes)
		copy(nw, d.blkCodes)
		d.blkCodes = nw
	}
	if cap(d.blkVal) < n*cc {
		nw := make([]uint64, n*cc)
		copy(nw, d.blkVal)
		d.blkVal = nw
	}
	if cap(d.blkX) < n*cc {
		nw := make([]uint64, n*cc)
		copy(nw, d.blkX)
		d.blkX = nw
	}
	d.resliceBlocks()
}

// allocBlock hands out the next free plane block, unlinked and empty.
// The plane words are left dirty: plane = 0 marks them untransposed, and
// syncPlanes rebuilds them from scratch if a masked lookup ever touches
// the block, so recycling a block costs one header store.
func (d *dict) allocBlock() int32 {
	if d.usedBlk == d.nBlocks {
		t := 2 * d.nBlocks
		if t < 16 {
			t = 16
		}
		d.growBlocksTo(t)
	}
	b := int32(d.usedBlk)
	d.usedBlk++
	d.blkHdr[b] = blockHdr{next: noBlock}
	return b
}

// clearSlots zeroes the probe table (compiled to a memclr).
func clearSlots(t []childSlot) {
	for i := range t {
		t[i] = childSlot{}
	}
}

// full reports whether every code has been assigned.
func (d *dict) full() bool { return int(d.next) >= d.cfg.DictSize }

// reset discards all string entries (FullReset policy). Only the literal
// child counts need sweeping: string-code index slots are re-initialized
// by commitAdd when their code is next assigned, head/tail pointers by
// each chain's first append, plane blocks are recycled wholesale
// (usedBlk) with their planes rebuilt on first masked lookup, and the
// probe table goes back to lazy (rebuilt on the next exact lookup, if
// one ever comes).
func (d *dict) reset() {
	if !d.noChildIndex {
		for c := Code(0); c < d.firstCode; c++ {
			d.chain[c].count = 0
		}
		d.tableLive = false
		d.usedBlk = d.overflowBase
		if dictOracle {
			d.ref.reset()
		}
	}
	d.next = d.firstCode
	d.resets++
}

// len returns the string length of code c in characters.
func (d *dict) len(c Code) int { return int(d.length[c]) }

// defined reports whether c currently names a literal or string entry.
// Literals occupy [0, firstCode) and string entries [firstCode, next),
// so the two ranges together are simply [0, next).
func (d *dict) defined(c Code) bool { return c < d.next }

// add attempts to register string(parent)+char under the next free code.
// It enforces the C_MDATA bound (no string longer than MaxChars) and the
// dictionary-full policy. It returns the new code and true when an entry
// was created.
func (d *dict) add(parent Code, char uint64) (Code, bool) {
	if !d.prepareAdd(parent) {
		return noCode, false
	}
	return d.commitAdd(parent, char), true
}

// prepareAdd applies the entry-length bound and the dictionary-full policy
// (including a FullReset reset) and reports whether an entry with the given
// parent can be created. The compressor calls it through add; the
// decompressor calls it *before* materializing the next code, because the
// compressor's corresponding add — and any reset it triggers — happened
// before that code was emitted.
func (d *dict) prepareAdd(parent Code) bool {
	if d.len(parent)+1 > d.maxChars {
		return false
	}
	return d.prepareRoom(parent)
}

// prepareRoom is the dictionary-full half of prepareAdd: it makes room
// per the full policy (possibly resetting) and reports whether the add
// may proceed.
func (d *dict) prepareRoom(parent Code) bool {
	if d.full() {
		if d.cfg.Full == FullFreeze {
			return false
		}
		if int(d.firstCode) >= d.cfg.DictSize {
			// DictSize == 2^C_C: every code is a literal and no string
			// entry can ever exist. Resetting cannot free a slot, so the
			// dictionary is permanently frozen regardless of policy.
			return false
		}
		d.reset()
		// After a reset the parent code may no longer be defined (it was a
		// string entry). The compressor and decompressor both skip the add
		// in that case, keeping the two sides in lockstep.
		if !d.defined(parent) {
			return false
		}
	}
	return true
}

// addWithLen is add for a caller that already knows parent's string
// length (the compressor's match loop tracks it incrementally), sparing
// the length[parent] load on every add.
func (d *dict) addWithLen(parent Code, char uint64, plen int) (Code, bool) {
	if plen+1 > d.maxChars || !d.prepareRoom(parent) {
		return noCode, false
	}
	return d.commitAdd(parent, char), true
}

// commitAdd registers string(parent)+char under the next free code after
// a successful prepareAdd. The new code is appended to the next free
// lane of parent's plane-block chain; only the lane → code column is
// written — the character is transposed into the planes lazily by
// syncPlanes, so an add costs the same handful of stores as the old
// sibling-chain push. Codes grow monotonically between resets and reset
// recycles every block, so lanes within a block — and blocks along a
// chain — are always in ascending code order; the tie-break scans rely
// on that.
//
// chain[parent].tail may be stale from an earlier epoch, so it is only
// trusted when chain[parent].count is non-zero (growChain rewrites it on
// a chain's first append). The count check must therefore short-circuit
// before the block-header load.
func (d *dict) commitAdd(parent Code, char uint64) Code {
	c := d.next
	d.next++
	d.parent[c] = parent
	d.lastChar[c] = char
	d.firstChar[c] = d.firstChar[parent]
	d.length[c] = d.length[parent] + 1
	if len(d.str) != 0 {
		// prepareAdd bounded the new entry to MaxChars, so the appended
		// character's shift stays below 64.
		d.str[c] = d.str[parent] | char<<(uint(d.length[parent])*uint(d.cfg.CharBits))
	}
	if d.noChildIndex {
		return c
	}
	d.chain[c].count = 0
	h := &d.chain[parent]
	tb := h.tail
	if h.count == 0 || d.blkHdr[tb].len == blockLanes {
		tb = d.growChain(parent, tb)
	}
	if h.count == 0 {
		h.first = c
	}
	hb := &d.blkHdr[tb]
	ln := hb.len
	d.blkCodes[int(tb)*blockLanes+int(ln)] = c
	hb.len = ln + 1
	if d.anyMasked && hb.plane == ln {
		// Masked queries are live and the block was fully transposed
		// before this append: extend the planes now, while the header and
		// character are in registers, instead of leaving the block one
		// lane stale for the next query's syncPlanes call. A recycled
		// block's first lane overwrites the full (dirty) words — the
		// single-lane analogue of the k==0 rebuild. The is-X words carry
		// no production traffic at all (see hasXLanes).
		base := int(tb) * d.cfg.CharBits
		if ln == 0 {
			for t := 0; t < d.cfg.CharBits; t++ {
				d.blkVal[base+t] = char >> uint(t) & 1
			}
			if d.hasXLanes {
				for t := 0; t < d.cfg.CharBits; t++ {
					d.blkX[base+t] = 0
				}
			}
		} else {
			bit := uint64(1) << uint(ln)
			for m := char; m != 0; m &= m - 1 {
				d.blkVal[base+bits.TrailingZeros64(m)] |= bit
			}
		}
		hb.plane = ln + 1
	}
	h.count++
	if d.tableLive {
		d.insertChild(parent, char, c)
	}
	if dictOracle {
		d.ref.add(parent, char, c)
	}
	return c
}

// growChain provides a block for parent's chain: the chain head when
// the parent has no children this epoch — under the direct layout that
// is block `parent` itself, re-initialized in place rather than handed
// out by the arena — otherwise an overflow link after tb (the current
// tail). Split from commitAdd so the append fast path stays short.
func (d *dict) growChain(parent Code, tb int32) int32 {
	h := &d.chain[parent]
	if h.count == 0 && d.directBlocks {
		nb := int32(parent)
		d.blkHdr[nb] = blockHdr{next: noBlock}
		h.head, h.tail = nb, nb
		return nb
	}
	nb := d.allocBlock()
	if h.count == 0 {
		h.head = nb
	} else {
		d.blkHdr[tb].next = nb
	}
	h.tail = nb
	return nb
}

// syncPlanes transposes the lanes appended since the block's last sync
// into its value/is-X planes. A block recycled by reset starts with
// dirty plane words (plane counter 0), so the first sync clears them;
// later syncs are OR-only appends. Dictionary characters are always
// concrete (the compressor adds the fill-concretized character, the
// decompressor replays it), so the lane's character is exactly
// lastChar[child] and its is-X plane bits stay zero — the is-X planes
// keep the kernel honest for three-valued lanes, which tests build
// directly.
func (d *dict) syncPlanes(b int32) {
	cc := d.cfg.CharBits
	base := int(b) * cc
	cb := int(b) * blockLanes
	k, n := int(d.blkHdr[b].plane), int(d.blkHdr[b].len)
	// The transposition is bitvec.AppendLane with a full care mask,
	// written out to avoid a call per lane. Characters are always below
	// 2^CharBits (the compressor concretizes within fullMask, the
	// decompressor and preload replay validated characters), so every
	// set bit indexes this block's own plane words.
	if k == 0 {
		// Full rebuild of a recycled block: accumulate the plane words on
		// the stack and overwrite, so the dirty words are never read and
		// never need a separate clear. The is-X words see no store at all
		// — production lanes are concrete (hasXLanes) and the kernel only
		// reads the words a test explicitly wrote.
		var acc [16]uint64 // cc ≤ 16
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			for m := d.lastChar[d.blkCodes[cb+i]]; m != 0; m &= m - 1 {
				acc[bits.TrailingZeros64(m)] |= bit
			}
		}
		for t := 0; t < cc; t++ {
			d.blkVal[base+t] = acc[t]
		}
		if d.hasXLanes {
			// Only dictionaries carrying test-built three-valued lanes ever
			// read the is-X words, and only they pay for clearing them.
			for t := 0; t < cc; t++ {
				d.blkX[base+t] = 0
			}
		}
		d.blkHdr[b].plane = int32(n)
		return
	}
	// Incremental append: lanes past the previous fill have clear plane
	// bits, so OR-only writes suffice.
	for i := k; i < n; i++ {
		bit := uint64(1) << uint(i)
		for m := d.lastChar[d.blkCodes[cb+i]]; m != 0; m &= m - 1 {
			d.blkVal[base+bits.TrailingZeros64(m)] |= bit
		}
	}
	d.blkHdr[b].plane = int32(n)
}

// syncAllPlanes brings every used block current. findChildMasked calls
// it exactly once per dictionary lifetime, on the first masked lookup:
// from then on commitAdd extends the planes eagerly with every append
// (anyMasked), so the match kernel can assume current planes and skip
// the per-block staleness check — and with it the whole block-header
// load on single-block chains.
func (d *dict) syncAllPlanes() {
	if d.directBlocks {
		// The direct region is indexed by code, not allocation order, and
		// blocks of parents with no children this epoch hold stale headers
		// (possibly pointing at lane codes from an earlier, larger
		// configuration) — walk the live chains instead of the region.
		for c := Code(0); c < d.next; c++ {
			if d.chain[c].count == 0 {
				continue
			}
			for b := d.chain[c].head; b != noBlock; b = d.blkHdr[b].next {
				if h := &d.blkHdr[b]; h.plane < h.len {
					d.syncPlanes(b)
				}
			}
		}
		return
	}
	for b := int32(0); int(b) < d.usedBlk; b++ {
		if h := &d.blkHdr[b]; h.plane < h.len {
			d.syncPlanes(b)
		}
	}
}

// insertChild records the (parent, char) → child edge in the probe
// table. Callers never insert a duplicate edge: the compressor only adds
// after findChild failed, the decompressor replays the compressor, and
// preload checks explicitly.
func (d *dict) insertChild(parent Code, char uint64, child Code) {
	key := childKey(parent, char)
	mask := uint64(len(d.table) - 1)
	i := key * hashMult >> d.shift
	for d.table[i].key != 0 {
		i = (i + 1) & mask
	}
	d.table[i] = childSlot{key: key, child: child}
}

// rebuildTable populates the probe table from scratch out of the live
// string codes (each code is exactly the (parent[c], lastChar[c]) → c
// edge). lookupChild calls it on the first exact lookup of an epoch;
// from then on commitAdd maintains the table incrementally.
func (d *dict) rebuildTable() {
	clearSlots(d.table)
	for c := d.firstCode; c < d.next; c++ {
		d.insertChild(d.parent[c], d.lastChar[c], c)
	}
	d.tableLive = true
}

// lookupChild resolves a concrete (parent, char) edge: one multiply-shift
// hash and a short linear probe (load factor is ≤50%).
func (d *dict) lookupChild(parent Code, char uint64) (Code, bool) {
	if !d.tableLive {
		d.rebuildTable()
	}
	key := childKey(parent, char)
	mask := uint64(len(d.table) - 1)
	i := key * hashMult >> d.shift
	for {
		s := d.table[i]
		if s.key == key {
			return s.child, true
		}
		if s.key == 0 {
			return noCode, false
		}
		i = (i + 1) & mask
	}
}

// findChild looks for a child of code whose character is compatible with
// the three-valued character (val, care): child & care == val. When the
// character is fully specified this is one probe; otherwise the
// bit-sliced kernel ranks the candidate set under the configured
// tie-break. The second result reports whether a child was found.
func (d *dict) findChild(code Code, val, care, fullMask uint64) (Code, bool) {
	if dictOracle {
		invariant.Check(!d.noChildIndex,
			"core: findChild on a noChildIndex dictionary at code %d", code)
	}
	var c Code
	var ok bool
	if care == fullMask {
		c, ok = d.lookupChild(code, val)
	} else {
		c, ok = d.findChildMasked(code, val, care, fullMask)
	}
	if dictOracle {
		// The not-found code value is unspecified (the reference returns
		// the map zero value, the flat matcher noCode); only the found
		// flag, and the code when found, are part of the contract.
		rc, rok := d.ref.findChild(code, val, care, fullMask)
		invariant.Check(rok == ok && (!ok || rc == c),
			"core: flat matcher diverges from reference at code %d (val=%#x care=%#x): flat=(%d,%v) ref=(%d,%v)",
			code, val, care, c, ok, rc, rok)
	}
	return c, ok
}

// findChildMasked resolves an X-laden lookup with the bit-sliced kernel:
// each 64-lane block of code's chain answers "which children are
// compatible with (val, care)" in popcount(care) word operations
// (bitvec.MatchLanes), and the tie-break is decided over the surviving
// bitmasks. Lanes ascend in code order, so TieOldest stops at the first
// surviving block's lowest lane, TieNewest keeps the last surviving
// block's highest lane, and TieWidest compares childCount across the
// surviving lanes (first strict maximum = lowest code, matching the
// historical scan). This replaced PR 4's two enumeration paths — the
// Gosper subset probes and the per-candidate sibling walk — which the
// kernel dominates on the shapes either one favored (see DESIGN.md §15
// for the audit numbers).
func (d *dict) findChildMasked(code Code, val, care, fullMask uint64) (Code, bool) {
	if !d.anyMasked {
		// First masked lookup of this dictionary's lifetime: bring every
		// used block current once. From here on commitAdd extends the
		// planes with each append, so the kernel below never re-checks
		// staleness — single-block chains run without touching a block
		// header at all.
		d.syncAllPlanes()
		d.anyMasked = true
	}
	ch := d.chain[code]
	if ch.count == 0 || val&^care != 0 || val&^fullMask != 0 {
		// No children; val carries bits outside its care mask (no
		// character can satisfy char&care == val); or val requires a set
		// bit above the character width, which no stored character has.
		return noCode, false
	}
	// Cared query bits above the character width can only demand zeros
	// (the val check above), which every stored character satisfies.
	care &= fullMask
	// All-X query: every child is compatible (val is 0 by the guard
	// above), so the tie resolves positionally with no kernel at all —
	// the oldest child is the header's cached first code and the newest
	// the tail block's last lane (non-tail blocks are always full, so
	// that lane is (count-1) mod 64). TieWidest still has to rank the
	// whole candidate set, so it falls through to the scan.
	if care == 0 {
		switch d.cfg.Tie {
		case TieOldest:
			return ch.first, true
		case TieNewest:
			return d.blkCodes[int(ch.tail)*blockLanes+int(ch.count-1)&63], true
		}
	}
	cc := d.cfg.CharBits
	// Each tie arm writes the per-block kernel out inline — base-indexed
	// plane loads instead of bitvec.MatchLanes over subslices — because
	// this is the hottest loop in the module and the call plus
	// slice-header construction measurably dominates the word operations
	// themselves. bitvec.MatchLanes remains the formula of record: the
	// bit-plane tests hold this path equivalent to it lane for lane.
	// growChain only opens a block once the tail is full, so every block
	// before the tail holds exactly 64 lanes and the per-block lane count
	// falls out of the running count — the block header is only loaded
	// for its next link when a chain actually spills past 64 children.
	switch d.cfg.Tie {
	case TieOldest:
		left := int(ch.count)
		for b := ch.head; ; {
			base := int(b) * cc
			lanes := ^uint64(0)
			if left < blockLanes {
				lanes >>= 64 - uint(left)
			}
			for m := care; m != 0 && lanes != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				bcast := -(val >> uint(t) & 1)
				mis := d.blkVal[base+t] ^ bcast
				if d.hasXLanes {
					mis &^= d.blkX[base+t]
				}
				lanes &^= mis
			}
			if lanes != 0 {
				return d.blkCodes[int(b)*blockLanes+bits.TrailingZeros64(lanes)], true
			}
			if left -= blockLanes; left <= 0 {
				return noCode, false
			}
			b = d.blkHdr[b].next
		}
	case TieNewest:
		best := noCode
		left := int(ch.count)
		for b := ch.head; ; {
			base := int(b) * cc
			lanes := ^uint64(0)
			if left < blockLanes {
				lanes >>= 64 - uint(left)
			}
			for m := care; m != 0 && lanes != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				bcast := -(val >> uint(t) & 1)
				mis := d.blkVal[base+t] ^ bcast
				if d.hasXLanes {
					mis &^= d.blkX[base+t]
				}
				lanes &^= mis
			}
			if lanes != 0 {
				best = d.blkCodes[int(b)*blockLanes+63-bits.LeadingZeros64(lanes)]
			}
			if left -= blockLanes; left <= 0 {
				break
			}
			b = d.blkHdr[b].next
		}
		if best != noCode {
			return best, true
		}
	case TieWidest:
		best := noCode
		bestWidth := int32(-1)
		left := int(ch.count)
		for b := ch.head; ; {
			base := int(b) * cc
			lanes := ^uint64(0)
			if left < blockLanes {
				lanes >>= 64 - uint(left)
			}
			for m := care; m != 0 && lanes != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				bcast := -(val >> uint(t) & 1)
				mis := d.blkVal[base+t] ^ bcast
				if d.hasXLanes {
					mis &^= d.blkX[base+t]
				}
				lanes &^= mis
			}
			for s := lanes; s != 0; s &= s - 1 {
				child := d.blkCodes[int(b)*blockLanes+bits.TrailingZeros64(s)]
				if w := d.chain[child].count; w > bestWidth {
					best, bestWidth = child, w
				}
			}
			if left -= blockLanes; left <= 0 {
				break
			}
			b = d.blkHdr[b].next
		}
		if best != noCode {
			return best, true
		}
	}
	return noCode, false
}

// stringOf materializes the uncompressed characters of code c, oldest
// character first. It appends into dst and returns the extended slice.
// The entry length is known up front, so characters are written directly
// into their final positions (no reversal pass) and a reused dst slice
// makes the walk allocation-free.
func (d *dict) stringOf(c Code, dst []uint64) []uint64 {
	n := int(d.length[c])
	start := len(dst)
	if tot := start + n; cap(dst) >= tot {
		dst = dst[:tot]
	} else {
		grown := make([]uint64, tot, 2*tot)
		copy(grown, dst)
		dst = grown
	}
	for cur, i := c, start+n-1; ; cur, i = d.parent[cur], i-1 {
		dst[i] = d.lastChar[cur]
		if d.parent[cur] == noCode {
			break
		}
	}
	return dst
}
