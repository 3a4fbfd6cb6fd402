// Package bitio provides MSB-first bit-level readers and writers used to
// pack fixed-width LZW codes, LZ77 tokens and run-length codewords into
// byte streams.
//
// All widths are in bits. A value written with WriteBits(v, n) occupies the
// next n bit positions of the stream, most significant bit first, so the
// byte stream is identical to what a hardware serializer shifting MSB-first
// would produce.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"lzwtc/internal/invariant"
)

// ErrUnexpectedEOF is returned by Reader when fewer bits remain than
// requested.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Writer accumulates bits MSB-first into an in-memory byte buffer.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf   []byte
	acc   uint64 // pending bits, left-aligned within the low `nacc` bits
	nacc  uint   // number of pending bits in acc
	nbits int    // total bits written
}

// WriteBits appends the low n bits of v to the stream, MSB first.
// n must be in [0, 64]; bits of v above position n-1 are ignored.
func (w *Writer) WriteBits(v uint64, n int) {
	invariant.Check(n >= 0 && n <= 64, "bitio: WriteBits width %d out of range", n)
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	w.nbits += n
	// Feed bits from the most significant end of the n-bit field.
	for n > 0 {
		free := 8 - w.nacc%8
		take := uint(n)
		if take > free {
			take = free
		}
		chunk := (v >> uint(n-int(take))) & ((1 << take) - 1)
		w.acc = w.acc<<take | chunk
		w.nacc += take
		n -= int(take)
		if w.nacc%8 == 0 {
			w.buf = append(w.buf, byte(w.acc))
			w.acc = 0
			w.nacc = 0
		}
	}
}

// WriteBit appends a single bit (any nonzero b writes 1).
func (w *Writer) WriteBit(b uint) {
	if b != 0 {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return w.nbits }

// Bytes returns the packed stream. The final partial byte, if any, is
// zero-padded on the right. The returned slice is valid until the next
// write.
func (w *Writer) Bytes() []byte {
	if w.nacc == 0 {
		return w.buf
	}
	pad := 8 - w.nacc
	last := byte(w.acc << pad)
	return append(w.buf[:len(w.buf):len(w.buf)], last)
}

// Reset discards all written bits.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
	w.nbits = 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position of next read
	lim int // total readable bits
}

// NewReader returns a Reader over buf exposing nbits readable bits.
// If nbits is negative, all of buf (8*len(buf) bits) is readable.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 || nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	return &Reader{buf: buf, lim: nbits}
}

// ReadBits reads the next n bits (n in [0,64]) as an unsigned integer,
// MSB first.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range", n)
	}
	if r.pos+n > r.lim {
		return 0, ErrUnexpectedEOF
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		bitOff := uint(r.pos % 8)
		avail := 8 - bitOff
		take := uint(n)
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += int(take)
		n -= int(take)
	}
	return v, nil
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// AppendCodes appends codes to dst as consecutive width-bit fields,
// MSB-first, zero-padding the final byte, and returns the extended
// slice: the same bytes as one WriteBits(code, width) per code. Bits of
// a code above width are dropped. width must be in [1, 32]. Codes shift
// into a 64-bit accumulator that drains whole bytes, so it never holds
// more than width+7 bits.
func AppendCodes[T ~uint32](dst []byte, codes []T, width int) []byte {
	invariant.Check(width >= 1 && width <= 32, "bitio: AppendCodes width %d out of range", width)
	start, nb := len(dst), (len(codes)*width+7)/8
	dst = slices.Grow(dst, nb)[:start+nb]
	// Stores go through an index into the grown slice rather than
	// append, and every shift is masked to 63: both keep the loop free
	// of calls and out-of-range shift fix-ups, so its state stays in
	// registers.
	out := dst[start:]
	w := uint(width) & 63
	mask := uint64(1)<<w - 1
	var acc uint64
	n, i := uint(0), 0 // bits pending in acc, next byte of out
	for _, c := range codes {
		acc = acc<<w | uint64(c)&mask
		n += w
		for n >= 8 {
			n -= 8
			out[i] = byte(acc >> (n & 63))
			i++
		}
	}
	if n > 0 {
		out[i] = byte(acc << ((8 - n) & 63))
	}
	return dst
}

// ReadCodes fills codes with consecutive width-bit fields of src read
// MSB-first, the inverse of AppendCodes. It returns ErrUnexpectedEOF,
// reading nothing, when src holds fewer than len(codes)·width bits.
// width must be in [1, 32].
func ReadCodes[T ~uint32](codes []T, src []byte, width int) error {
	invariant.Check(width >= 1 && width <= 32, "bitio: ReadCodes width %d out of range", width)
	if len(codes)*width > 8*len(src) {
		return ErrUnexpectedEOF
	}
	w := uint(width) & 63
	mask := uint64(1)<<w - 1
	var acc uint64
	have, next := uint(0), 0 // bits pending in acc, next byte of src
	for i := range codes {
		if have < w {
			// Refill 32 bits at once while 4 bytes remain: acc then holds
			// fewer than 64 live bits, and one refill always covers a code.
			if next+4 <= len(src) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(src[next:]))
				next += 4
				have += 32
			} else {
				for have < w {
					acc = acc<<8 | uint64(src[next])
					next++
					have += 8
				}
			}
		}
		have -= w
		codes[i] = T(acc >> (have & 63) & mask)
	}
	return nil
}
