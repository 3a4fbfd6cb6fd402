// Package core implements the paper's primary contribution: LZW
// compression of scan test vectors with dynamic don't-care assignment.
//
// The input is a three-valued (0/1/X) bit stream (a serialized scan test
// set). The stream is consumed in characters of C_C bits. Don't-care bits
// inside a character are not pre-assigned; instead, while the LZW
// dictionary walk is in progress, an X-laden character is concretized to
// whichever value lets the walk continue along an existing dictionary
// string ("dynamic sliding window" assignment, Section 5 of the paper).
// Only when no dictionary continuation exists is a residual fill policy
// applied.
//
// The dictionary is bounded two ways, mirroring the hardware decompressor
// of Section 5.1: at most N codes (C_E = ceil(log2 N) bits per emitted
// code), and no dictionary string longer than C_MDATA bits, so each entry
// fits one embedded-memory word and decodes with a single memory read.
package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// Code is a compressed LZW code. Codes 0..2^C_C-1 denote literal
// (uncompressed) characters; codes 2^C_C..N-1 denote dictionary strings.
type Code uint32

// TieBreak selects among multiple dictionary children compatible with an
// X-laden input character.
type TieBreak uint8

// Tie-break policies.
const (
	TieOldest TieBreak = iota // lowest code: the longest-lived continuation
	TieNewest                 // highest code: the most recently created
	TieWidest                 // child with the most grandchildren, then lowest code
)

// String names the policy.
func (t TieBreak) String() string {
	switch t {
	case TieOldest:
		return "oldest"
	case TieNewest:
		return "newest"
	case TieWidest:
		return "widest"
	default:
		return fmt.Sprintf("TieBreak(%d)", uint8(t))
	}
}

// FullPolicy selects behaviour once all N dictionary codes are assigned.
type FullPolicy uint8

// Dictionary-full policies.
const (
	FullFreeze FullPolicy = iota // stop adding entries (the paper's choice)
	FullReset                    // discard string entries and rebuild
)

// String names the policy.
func (p FullPolicy) String() string {
	switch p {
	case FullFreeze:
		return "freeze"
	case FullReset:
		return "reset"
	default:
		return fmt.Sprintf("FullPolicy(%d)", uint8(p))
	}
}

// FillPolicy selects how X bits are assigned when no dictionary
// continuation exists (the residual case of the dynamic assignment).
type FillPolicy uint8

// Residual fill policies.
const (
	FillZero   FillPolicy = iota // X -> 0
	FillOne                      // X -> 1
	FillRepeat                   // X -> previous stream bit
)

// String names the policy.
func (p FillPolicy) String() string {
	switch p {
	case FillZero:
		return "zero"
	case FillOne:
		return "one"
	case FillRepeat:
		return "repeat"
	default:
		return fmt.Sprintf("FillPolicy(%d)", uint8(p))
	}
}

// ParsePolicy sets the policy key names on cfg ("fill", "tie" or
// "full") from its String form: the inverse of FillPolicy.String,
// TieBreak.String and FullPolicy.String. An unknown key or name is an
// error and leaves cfg unchanged.
//
//lzwtcvet:ignore configbeforeuse sets one field; the caller validates the finished Config
func ParsePolicy(cfg *Config, key, name string) error {
	switch key {
	case "fill":
		return parsePolicy(&cfg.Fill, key, name, FillZero, FillOne, FillRepeat)
	case "tie":
		return parsePolicy(&cfg.Tie, key, name, TieOldest, TieNewest, TieWidest)
	case "full":
		return parsePolicy(&cfg.Full, key, name, FullFreeze, FullReset)
	}
	return fmt.Errorf("core: unknown policy %q (want fill, tie or full)", key)
}

// parsePolicy sets *dst to the one of ps whose String is name.
func parsePolicy[P fmt.Stringer](dst *P, key, name string, ps ...P) error {
	names := make([]string, len(ps))
	for i, p := range ps {
		if names[i] = p.String(); names[i] == name {
			*dst = p
			return nil
		}
	}
	return fmt.Errorf("core: unknown %s policy %q (want %s)", key, name, strings.Join(names, ", "))
}

// Config carries the LZW configurator parameters (Section 3: "the LZW
// configurator allows for the selection of the LZW dictionary size as well
// as the LZW character size"). Field names follow the paper.
type Config struct {
	// CharBits is C_C, the uncompressed character size in bits (1..16).
	CharBits int
	// DictSize is N, the total number of codes including the 2^C_C
	// literals. Must be at least 2^C_C. C_E = ceil(log2 N).
	DictSize int
	// EntryBits is C_MDATA, the per-entry uncompressed-data width of the
	// decompressor memory, bounding every dictionary string. 0 means
	// unbounded (software-only operation, no hardware correspondence).
	EntryBits int
	// Fill is the residual don't-care fill policy.
	Fill FillPolicy
	// Tie is the dictionary child tie-break policy.
	Tie TieBreak
	// Full is the dictionary-full policy.
	Full FullPolicy
}

// DefaultConfig returns the configuration used for the paper's headline
// results (Table 1): 7-bit characters, 1024-code dictionary and 64-bit
// dictionary entries (63 data bits = 9 characters).
func DefaultConfig() Config {
	return Config{CharBits: 7, DictSize: 1024, EntryBits: 63}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CharBits < 1 || c.CharBits > 16 {
		return fmt.Errorf("core: CharBits %d out of range [1,16]", c.CharBits)
	}
	if c.DictSize < 1<<uint(c.CharBits) {
		return fmt.Errorf("core: DictSize %d smaller than literal space 2^%d", c.DictSize, c.CharBits)
	}
	if c.DictSize > 1<<24 {
		return fmt.Errorf("core: DictSize %d exceeds 2^24", c.DictSize)
	}
	if c.EntryBits != 0 && c.EntryBits < c.CharBits {
		return fmt.Errorf("core: EntryBits %d smaller than CharBits %d", c.EntryBits, c.CharBits)
	}
	return nil
}

// CodeBits returns C_E, the width in bits of each emitted code.
func (c Config) CodeBits() int {
	return bits.Len(uint(c.DictSize - 1))
}

// Literals returns the number of literal codes, 2^C_C.
func (c Config) Literals() int { return 1 << uint(c.CharBits) }

// MaxChars returns the maximum dictionary string length in characters
// implied by EntryBits (C_MDATA / C_C), or a practically unbounded value
// when EntryBits is 0.
func (c Config) MaxChars() int {
	if c.EntryBits == 0 {
		return 1 << 30
	}
	return c.EntryBits / c.CharBits
}

// PaddedWidth returns a pattern of the given width rounded up to a
// whole number of characters: the bits it occupies in the scan-in
// stream, where every pattern starts on a character boundary.
func (c Config) PaddedWidth(width int) int {
	return (width + c.CharBits - 1) / c.CharBits * c.CharBits
}

// MaxOutputBits bounds the bits n codes can decode to under c, from a
// dictionary whose longest entry is longest characters: 1 for a cold
// start, the longest preload string otherwise. Each code is at most one
// character longer than the longest entry defined before it, and never
// longer than MaxChars, so code i spans at most min(MaxChars,
// longest+i) characters.
func (c Config) MaxOutputBits(n, longest int) int {
	m := c.MaxChars()
	// The first k codes still grow by one character each; the rest sit
	// at the entry bound.
	k := min(max(m-longest, 0), n)
	return c.CharBits * (k*longest + k*(k-1)/2 + (n-k)*m)
}

// LenBits returns C_MLEN, the width of the per-entry length field of the
// decompressor memory: enough to count 1..MaxChars characters.
func (c Config) LenBits() int {
	return bits.Len(uint(c.MaxChars()))
}

// MemoryBits returns the decompressor dictionary memory size in bits,
// N x (C_MLEN + C_MDATA) — the Section 6 sizing metric (for s13207 the
// paper quotes 1024 x 490). Unbounded configurations have no hardware
// realization and return 0.
func (c Config) MemoryBits() int {
	if c.EntryBits == 0 {
		return 0
	}
	return c.DictSize * (c.LenBits() + c.EntryBits)
}
