// Package dictstore is the shared-dictionary cache tier: a
// content-addressed store of trained preload dictionaries
// (core.Preload), so repeat traffic over the same training corpus pays
// core.Train once per fleet instead of once per request.
//
// Three layers compose:
//
//   - a versioned, CRC32C-protected "LZWD" blob serializes one
//     (Config, Preload) pair — the durable and wire-transferable form;
//   - a SHA-256 content address keys each dictionary by what produced
//     it (canonicalized training corpus + configuration), so two
//     parties that trained on the same input derive the same key
//     without coordination;
//   - a Store fronts the blobs with a byte-budgeted in-memory LRU
//     (singleflight: N concurrent misses on one key train once) and an
//     optional on-disk persistent index (one blob file per key plus a
//     compact manifest, crash-safe via write-to-temp-then-rename).
//
// Decoding is hostile-input safe: arbitrary bytes produce a typed
// error (errDictMagic, errDictVersion, ErrDictChecksum,
// ErrDictTruncated, errDictLimit or a config validation error), never
// a panic, and allocation tracks the bytes actually present.
package dictstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"lzwtc/internal/core"
)

// blobMagic is the 4-byte dictionary-blob signature.
var blobMagic = [4]byte{'L', 'Z', 'W', 'D'}

// blobVersion is the current blob format version. Decoders reject
// anything newer.
const blobVersion = 1

// keyLen is the byte length of a store key (SHA-256).
const keyLen = 32

// digestLen is the byte length of a blob digest (SHA-256).
const digestLen = 32

// maxBlobChars bounds the total reconstructed character count across
// all strings of one blob, so a hostile chain of entries (each
// extending the last) cannot make decode memory quadratic in the input
// size. 2^26 characters is far beyond any real trained dictionary
// (DictSize caps entries at 2^24).
const maxBlobChars = 1 << 26

// Typed decode errors. Wrapped errors carry position detail; test with
// errors.Is.
var (
	// errDictMagic reports bytes that are not an LZWD blob at all.
	errDictMagic = errors.New("dictstore: bad magic (not an LZWD blob)")
	// errDictVersion reports a blob from a newer (or zero) version.
	errDictVersion = errors.New("dictstore: unsupported blob version")
	// ErrDictChecksum reports a CRC32C mismatch in the header or payload.
	ErrDictChecksum = errors.New("dictstore: checksum mismatch")
	// ErrDictTruncated reports a blob that ends mid-region.
	ErrDictTruncated = errors.New("dictstore: truncated blob")
	// errDictLimit reports a length or reference field exceeding the
	// format's hard bounds.
	errDictLimit = errors.New("dictstore: field exceeds format limit")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Key is the content address of a stored dictionary: SHA-256 over the
// canonicalized training corpus and the configuration it was trained
// under.
type Key [keyLen]byte

// String renders the key as 64 hex digits, the form used in file
// names, URLs and the CLI.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey inverts Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*keyLen {
		return k, fmt.Errorf("dictstore: key %q must be %d hex digits", s, 2*keyLen)
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return k, fmt.Errorf("dictstore: key %q: %w", s, err)
	}
	return k, nil
}

// Digest is the SHA-256 of a canonical blob encoding. A wire
// dictionary-reference frame carries both the key (how to find the
// dictionary) and the digest (how to prove the one found is the one
// the container was compressed with).
type Digest [digestLen]byte

// String renders the digest as 64 hex digits.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// appendConfig appends the uvarint configuration fields in blob order.
func appendConfig(b []byte, cfg core.Config) []byte {
	b = binary.AppendUvarint(b, uint64(cfg.CharBits))
	b = binary.AppendUvarint(b, uint64(cfg.DictSize))
	b = binary.AppendUvarint(b, uint64(cfg.EntryBits))
	b = binary.AppendUvarint(b, uint64(cfg.Fill))
	b = binary.AppendUvarint(b, uint64(cfg.Tie))
	b = binary.AppendUvarint(b, uint64(cfg.Full))
	return b
}

// KeyFor derives the content address for a dictionary trained on
// corpus under cfg. The corpus must be in canonical form (the cube
// text WriteCubes emits) so formatting variation cannot split the
// cache; the derivation is domain-separated from the blob digest.
func KeyFor(corpus []byte, cfg core.Config) Key {
	b := make([]byte, 0, 32+len(corpus))
	b = append(b, "lzwtc-dict-key/1\x00"...)
	b = appendConfig(b, cfg)
	b = append(b, 0)
	b = append(b, corpus...)
	return Key(sha256.Sum256(b))
}

// BlobDigest returns the SHA-256 of a blob encoding.
func BlobDigest(blob []byte) Digest {
	return Digest(sha256.Sum256(blob))
}

// EncodeBlob serializes a preload dictionary into the canonical LZWD
// form:
//
//	header   magic "LZWD" | version u8 | uvarint config (6 fields) |
//	         uvarint entry count | CRC32C
//	entries  per entry: uvarint parent code | uvarint last char
//	         (creation order; prefix-closure makes this lossless)
//	         | CRC32C over the entry region
//
// Each preload string extends exactly one earlier string (or literal)
// by its final character — the invariant core.Train guarantees — so an
// entry is just that (parent, char) edge: the blob grows with the
// dictionary, not with the sum of string lengths, the same don't-care
// structural compression ReducedLUT applies to precomputed tables.
func EncodeBlob(cfg core.Config, pre *core.Preload) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Full == core.FullReset {
		return nil, fmt.Errorf("dictstore: a FullReset configuration cannot carry a preload dictionary")
	}
	literals := cfg.Literals()
	n := pre.Entries()
	if n > cfg.DictSize-literals {
		return nil, fmt.Errorf("dictstore: %d entries overflow dictionary size %d (literals %d)", n, cfg.DictSize, literals)
	}

	b := make([]byte, 0, 32+4*n)
	b = append(b, blobMagic[:]...)
	b = append(b, blobVersion)
	b = appendConfig(b, cfg)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))

	// Codes are assigned in creation order: string i gets literals+i.
	// The parent of string i is its prefix of length len-1, located
	// through this map (a one-character prefix is a literal code).
	codeOf := map[string]int{}
	payloadStart := len(b)
	maxChars := cfg.MaxChars()
	for i, s := range pre.Strings {
		if len(s) < 2 {
			return nil, fmt.Errorf("dictstore: preload string %d has %d chars; literals are implicit", i, len(s))
		}
		if len(s) > maxChars {
			return nil, fmt.Errorf("dictstore: preload string %d has %d chars, entry bound is %d", i, len(s), maxChars)
		}
		for k, ch := range s {
			if ch >= uint64(literals) {
				return nil, fmt.Errorf("dictstore: preload string %d has invalid character %d at position %d", i, ch, k)
			}
		}
		parent := int(s[0])
		if len(s) > 2 {
			p, ok := codeOf[stringKey(s[:len(s)-1])]
			if !ok {
				return nil, fmt.Errorf("dictstore: preload string %d is not prefix-closed", i)
			}
			parent = p
		}
		if _, dup := codeOf[stringKey(s)]; dup {
			return nil, fmt.Errorf("dictstore: preload string %d duplicates an earlier entry", i)
		}
		b = binary.AppendUvarint(b, uint64(parent))
		b = binary.AppendUvarint(b, s[len(s)-1])
		codeOf[stringKey(s)] = literals + i
	}
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[payloadStart:], crcTable)), nil
}

// stringKey renders a character string as a map key (characters fit 16
// bits; C_C <= 16).
func stringKey(s []uint64) string {
	b := make([]byte, 2*len(s))
	for i, ch := range s {
		binary.BigEndian.PutUint16(b[2*i:], uint16(ch))
	}
	return string(b)
}

// blobCursor walks a blob with truncation-typed reads.
type blobCursor struct {
	data []byte
	pos  int
}

func (c *blobCursor) remaining() int { return len(c.data) - c.pos }

func (c *blobCursor) bytes(n int, region string) ([]byte, error) {
	if c.remaining() < n {
		return nil, fmt.Errorf("%w: %s needs %d bytes, have %d", ErrDictTruncated, region, n, c.remaining())
	}
	b := c.data[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

func (c *blobCursor) uvarint(region string) (uint64, error) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s uvarint", ErrDictTruncated, region)
	}
	c.pos += n
	return v, nil
}

// checkCRC verifies the CRC32C trailing the region [from, pos).
func (c *blobCursor) checkCRC(from int, region string) error {
	body := c.data[from:c.pos]
	sum, err := c.bytes(4, region+" checksum")
	if err != nil {
		return err
	}
	want := binary.BigEndian.Uint32(sum)
	if got := crc32.Checksum(body, crcTable); got != want {
		return fmt.Errorf("%w: %s: computed %08x, stored %08x", ErrDictChecksum, region, got, want)
	}
	return nil
}

// DecodeBlob parses and fully validates an LZWD blob, reconstructing
// the preload strings from the (parent, char) edges. Every structural
// rule is re-checked — parent references must point at literals or
// earlier entries, characters must fit C_C bits, string lengths must
// respect EntryBits — so a blob that decodes cleanly always preloads
// cleanly.
func DecodeBlob(data []byte) (core.Config, *core.Preload, error) {
	var cfg core.Config
	c := &blobCursor{data: data}

	magic, err := c.bytes(4, "magic")
	if err != nil {
		return cfg, nil, err
	}
	if [4]byte(magic) != blobMagic {
		return cfg, nil, errDictMagic
	}
	ver, err := c.bytes(1, "version")
	if err != nil {
		return cfg, nil, err
	}
	if ver[0] != blobVersion {
		return cfg, nil, fmt.Errorf("%w: got %d, support <= %d", errDictVersion, ver[0], blobVersion)
	}
	var fields [7]uint64
	for i := range fields {
		if fields[i], err = c.uvarint("header field"); err != nil {
			return cfg, nil, err
		}
	}
	if err := c.checkCRC(0, "header"); err != nil {
		return cfg, nil, err
	}
	cfg = core.Config{
		CharBits:  clampInt(fields[0]),
		DictSize:  clampInt(fields[1]),
		EntryBits: clampInt(fields[2]),
		Fill:      core.FillPolicy(fields[3]),
		Tie:       core.TieBreak(fields[4]),
		Full:      core.FullPolicy(fields[5]),
	}
	if fields[3] > uint64(core.FillRepeat) || fields[4] > uint64(core.TieWidest) || fields[5] > uint64(core.FullReset) {
		return cfg, nil, fmt.Errorf("%w: unknown policy (fill=%d tie=%d full=%d)", errDictLimit, fields[3], fields[4], fields[5])
	}
	if err := cfg.Validate(); err != nil {
		return cfg, nil, err
	}
	if cfg.Full == core.FullReset {
		return cfg, nil, fmt.Errorf("%w: FullReset configuration cannot carry a preload", errDictLimit)
	}
	literals := cfg.Literals()
	n := clampInt(fields[6])
	if n > cfg.DictSize-literals {
		return cfg, nil, fmt.Errorf("%w: %d entries overflow dictionary size %d", errDictLimit, n, cfg.DictSize)
	}
	// Each entry consumes at least two payload bytes, so the count is
	// re-bounded by the bytes actually present before any allocation.
	if c.remaining() < 2*n {
		return cfg, nil, fmt.Errorf("%w: %d entries need %d payload bytes, have %d", ErrDictTruncated, n, 2*n, c.remaining())
	}

	payloadStart := c.pos
	maxChars := cfg.MaxChars()
	strings := make([][]uint64, 0, n)
	edges := make(map[[2]uint64]bool, n)
	totalChars := 0
	for i := 0; i < n; i++ {
		parent, err := c.uvarint("entry parent")
		if err != nil {
			return cfg, nil, err
		}
		ch, err := c.uvarint("entry char")
		if err != nil {
			return cfg, nil, err
		}
		if parent >= uint64(literals+i) {
			return cfg, nil, fmt.Errorf("%w: entry %d parent %d is not an earlier code", errDictLimit, i, parent)
		}
		if ch >= uint64(literals) {
			return cfg, nil, fmt.Errorf("%w: entry %d character %d exceeds %d-bit range", errDictLimit, i, ch, cfg.CharBits)
		}
		// Training never inserts a string twice, so a repeated
		// (parent, char) edge marks a non-canonical blob; rejecting it
		// keeps decode∘encode the identity.
		edge := [2]uint64{parent, ch}
		if edges[edge] {
			return cfg, nil, fmt.Errorf("%w: entry %d duplicates edge (%d,%d)", errDictLimit, i, parent, ch)
		}
		edges[edge] = true
		var s []uint64
		if int(parent) < literals {
			s = []uint64{parent, ch}
		} else {
			prefix := strings[int(parent)-literals]
			s = make([]uint64, 0, len(prefix)+1)
			s = append(append(s, prefix...), ch)
		}
		if len(s) > maxChars {
			return cfg, nil, fmt.Errorf("%w: entry %d string length %d exceeds entry bound %d", errDictLimit, i, len(s), maxChars)
		}
		totalChars += len(s)
		if totalChars > maxBlobChars {
			return cfg, nil, fmt.Errorf("%w: total string volume exceeds %d characters", errDictLimit, maxBlobChars)
		}
		strings = append(strings, s)
	}
	if err := c.checkCRC(payloadStart, "payload"); err != nil {
		return cfg, nil, err
	}
	if c.remaining() != 0 {
		return cfg, nil, fmt.Errorf("%w: %d trailing bytes after payload checksum", errDictLimit, c.remaining())
	}
	return cfg, &core.Preload{Strings: strings}, nil
}

// clampInt converts a header uvarint to int, saturating instead of
// wrapping on 32-bit overflow so validation sees an out-of-range value
// rather than a negative one.
func clampInt(v uint64) int {
	if v > 1<<31-1 {
		return 1<<31 - 1
	}
	return int(v)
}
