package bitio

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzBitio drives Writer/Reader with an op stream decoded from the
// fuzz input: each 9-byte record is one WriteBits call — byte 0 selects
// the width (mod 65, so 0..64 inclusive), bytes 1..8 are the
// little-endian value. Every value written must read back exactly
// (masked to its width), and reading past the end must fail with
// ErrUnexpectedEOF.
func FuzzBitio(f *testing.F) {
	op := func(width byte, v uint64) []byte {
		rec := make([]byte, 9)
		rec[0] = width
		binary.LittleEndian.PutUint64(rec[1:], v)
		return rec
	}
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	f.Add([]byte{})                                  // no ops
	f.Add(op(64, ^uint64(0)))                        // single max-width all-ones op
	f.Add(op(1, 1))                                  // single bit
	f.Add(op(0, 0x1234))                             // zero-width no-op
	f.Add(cat(op(7, 0x55), op(10, 0x3ff), op(3, 5))) // the paper's C_C/C_E widths
	f.Add(cat(op(64, 0), op(64, ^uint64(0)), op(33, 1<<32)))
	f.Add(cat(op(8, 0xff), op(8, 0x00), op(8, 0xaa), op(8, 0x55)))

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512
		type rec struct {
			n int
			v uint64
		}
		var ops []rec
		for len(data) >= 9 && len(ops) < maxOps {
			ops = append(ops, rec{n: int(data[0] % 65), v: binary.LittleEndian.Uint64(data[1:9])})
			data = data[9:]
		}

		var w Writer
		total := 0
		for _, o := range ops {
			w.WriteBits(o.v, o.n)
			total += o.n
		}
		if w.BitLen() != total {
			t.Fatalf("BitLen = %d after writing %d bits", w.BitLen(), total)
		}
		buf := w.Bytes()
		if want := (total + 7) / 8; len(buf) != want {
			t.Fatalf("Bytes() returned %d bytes for %d bits, want %d", len(buf), total, want)
		}

		r := NewReader(buf, w.BitLen())
		for i, o := range ops {
			got, err := r.ReadBits(o.n)
			if err != nil {
				t.Fatalf("op %d: ReadBits(%d): %v", i, o.n, err)
			}
			want := o.v
			if o.n < 64 {
				want &= 1<<uint(o.n) - 1
			}
			if got != want {
				t.Fatalf("op %d: ReadBits(%d) = %#x, want %#x", i, o.n, got, want)
			}
		}
		if _, err := r.ReadBits(1); !errors.Is(err, ErrUnexpectedEOF) {
			t.Fatalf("over-read returned %v, want ErrUnexpectedEOF", err)
		}
	})
}
