package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	vals := []struct {
		v uint64
		n int
	}{
		{0b1, 1}, {0b0, 1}, {0b101, 3}, {0xFF, 8}, {0x1234, 16},
		{0x7, 7}, {0xDEADBEEF, 32}, {1<<63 | 1, 64}, {0, 5},
	}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, x := range vals {
		got, err := r.ReadBits(x.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := x.v
		if x.n < 64 {
			want &= (1 << uint(x.n)) - 1
		}
		if got != want {
			t.Errorf("read %d: got %#x want %#x (width %d)", i, got, want, x.n)
		}
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Errorf("bits remain after reading everything back (err %v)", err)
	}
}

func TestMSBFirstLayout(t *testing.T) {
	var w Writer
	w.WriteBits(0b1, 1)
	w.WriteBits(0b01, 2)
	w.WriteBits(0b10110, 5)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b10110110 {
		t.Fatalf("bytes = %08b, want 10110110", b)
	}
}

func TestPartialBytePadding(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b10100000 {
		t.Fatalf("bytes = %08b, want 10100000", b)
	}
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d, want 3", w.BitLen())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xFF}, 3)
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := r.ReadBits(3); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xABCD, 16)
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("after Reset: BitLen=%d len(Bytes)=%d", w.BitLen(), len(w.Bytes()))
	}
	w.WriteBits(0x3, 2)
	if b := w.Bytes(); len(b) != 1 || b[0] != 0b11000000 {
		t.Fatalf("after Reset+write: %08b", b)
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 0)
	if w.BitLen() != 0 {
		t.Fatalf("BitLen = %d, want 0", w.BitLen())
	}
}

func TestWriteBit(t *testing.T) {
	var w Writer
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBit(7) // any nonzero writes 1
	r := NewReader(w.Bytes(), w.BitLen())
	want := []uint{1, 0, 1}
	for i, wb := range want {
		got, err := r.ReadBit()
		if err != nil || got != wb {
			t.Fatalf("bit %d: got %d err %v, want %d", i, got, err, wb)
		}
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%200) + 1
		type field struct {
			v uint64
			n int
		}
		fields := make([]field, n)
		var w Writer
		for i := range fields {
			width := rng.Intn(64) + 1
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			fields[i] = field{v, width}
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes(), w.BitLen())
		for _, f := range fields {
			got, err := r.ReadBits(f.n)
			if err != nil || got != f.v {
				return false
			}
		}
		_, err := r.ReadBit()
		return err == ErrUnexpectedEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bit length equals the sum of written widths, and the byte
// buffer is exactly ceil(bits/8) long.
func TestQuickLengths(t *testing.T) {
	f := func(widths []uint8) bool {
		var w Writer
		total := 0
		for _, wd := range widths {
			n := int(wd % 65)
			w.WriteBits(0xAAAAAAAAAAAAAAAA, n)
			total += n
		}
		return w.BitLen() == total && len(w.Bytes()) == (total+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		w.WriteBits(uint64(i), 10)
		if w.BitLen() > 1<<20 {
			w.Reset()
		}
	}
}

// TestCodesMatchWriteBits holds the bulk packers to the per-field
// Writer and Reader over every width they accept: AppendCodes must emit
// the bytes of one WriteBits per code (stray high bits dropped), after
// any prefix already in dst, and ReadCodes must read back what ReadBits
// reads, also from random bytes with the pad bits set.
func TestCodesMatchWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for width := 1; width <= 32; width++ {
		for _, n := range []int{0, 1, 3, 7, 8, 9, 64, 65} {
			codes := make([]uint32, n)
			var w Writer
			for i := range codes {
				codes[i] = rng.Uint32()
				w.WriteBits(uint64(codes[i]), width)
			}
			prefix := []byte{0xa5}
			got := AppendCodes(prefix, codes, width)
			if want := append([]byte{0xa5}, w.Bytes()...); string(got) != string(want) {
				t.Fatalf("width=%d n=%d: AppendCodes = %x, WriteBits %x", width, n, got, want)
			}
			noise := make([]byte, len(got)-1)
			rng.Read(noise)
			back := make([]uint32, n)
			if err := ReadCodes(back, noise, width); err != nil {
				t.Fatalf("width=%d n=%d: ReadCodes: %v", width, n, err)
			}
			r := NewReader(noise, -1)
			for i, c := range back {
				if v, _ := r.ReadBits(width); uint64(c) != v {
					t.Fatalf("width=%d n=%d code %d: ReadCodes %d, ReadBits %d", width, n, i, c, v)
				}
			}
			if n > 0 {
				if err := ReadCodes(back, noise[:(n*width-1)/8], width); err != ErrUnexpectedEOF {
					t.Fatalf("width=%d n=%d: short input: got %v, want ErrUnexpectedEOF", width, n, err)
				}
			}
		}
	}
}
