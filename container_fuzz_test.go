package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lzwtc/internal/wire"
)

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileContainer writes a container of one data frame whose length
// fields are exactly as given, CRCs included, optionally behind a 'D'
// frame.
func hostileContainer(t testing.TB, cfg Config, width int, f *wire.Frame, dict bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, wire.Header{Cfg: cfg, Width: width})
	if err != nil {
		t.Fatal(err)
	}
	if dict {
		if err := w.WriteDictRef(DictRef{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileShapes are checksum-valid containers whose frames claim more
// output than the decoder could ever fill.
func hostileShapes(t testing.TB) map[string][]byte {
	cc8 := Config{CharBits: 8, DictSize: 512, EntryBits: 64}
	return map[string][]byte{
		// One 8-bit pattern claiming 2^30 input bits.
		"input bits off the pattern shape": hostileContainer(t, cc8, 8,
			&wire.Frame{Patterns: 1, InputBits: 1 << 30, Codes: []Code{0}}, false),
		// 2^20 patterns of one character each: the shape holds, but one
		// code expands to one character.
		"more than one code can expand to": hostileContainer(t, cc8, 8,
			&wire.Frame{Patterns: 1 << 20, InputBits: 1 << 23, Codes: []Code{0}}, false),
		// Behind a 'D' frame every code may be a full 9-character entry:
		// ten codes still cannot fill 4096 63-bit patterns.
		"more than a preloaded dictionary can expand to": hostileContainer(t, DefaultConfig(), 63,
			&wire.Frame{Patterns: 4096, InputBits: 4096 * 63, Codes: make([]Code, 10)}, true),
	}
}

// TestWireHugeDictionaryFewCodes: a container announcing the largest
// dictionary the format allows but carrying one code decodes without
// sizing a dictionary for all of it.
func TestWireHugeDictionaryFewCodes(t *testing.T) {
	cfg := Config{CharBits: 8, DictSize: 1 << 24, EntryBits: 64}
	data := hostileContainer(t, cfg, 8, &wire.Frame{Patterns: 1, InputBits: 8, Codes: []Code{0x55}}, false)
	var set *TestSet
	var err error
	n := allocBytes(func() { set, err = Decompress(context.Background(), bytes.NewReader(data), Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Cubes[0].String(); got != "10101010" {
		t.Fatalf("decoded %s, want 10101010", got)
	}
	if n > 1<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte container", n, len(data))
	}
}

// TestWireHostileFrameShapes: a frame whose input length cannot be its
// patterns, or cannot come out of its codes, fails with ErrWireLimit
// before the decoder sizes any output by it. Every entry that reads a
// container rejects it, within a fixed allocation.
func TestWireHostileFrameShapes(t *testing.T) {
	const budget = 1 << 20
	for name, data := range hostileShapes(t) {
		t.Run(name, func(t *testing.T) {
			for entry, decode := range map[string]func() error{
				"Decompress": func() error { _, err := Decompress(context.Background(), bytes.NewReader(data), Options{}); return err },
				"DecodeWireResult": func() error {
					_, err := DecodeWireResult(bytes.NewReader(data))
					return err
				},
			} {
				var err error
				n := allocBytes(func() { err = decode() })
				if !errors.Is(err, ErrWireLimit) {
					t.Fatalf("%s: got %v, want ErrWireLimit", entry, err)
				}
				if n > budget {
					t.Fatalf("%s: allocated %d bytes for a %d-byte container", entry, n, len(data))
				}
			}
		})
	}
}

// dataLessContainers are checksum-valid containers with no data frame:
// the header and EOS frame alone, and a 'D' frame between them.
func dataLessContainers(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, dict := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := wire.NewWriter(&buf, wire.Header{Cfg: DefaultConfig(), Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		if dict {
			if err := w.WriteDictRef(DictRef{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestWireNoDataFrame: a container whose EOS frame comes before any
// data frame lost its frames. Every entry that reads a container
// rejects it with ErrWireTruncated, the 'D'-only one included, before
// any dictionary is resolved.
func TestWireNoDataFrame(t *testing.T) {
	for i, data := range dataLessContainers(t) {
		for entry, decode := range map[string]func() error{
			"Decompress": func() error { _, err := Decompress(context.Background(), bytes.NewReader(data), Options{}); return err },
			"DecodeWireResult": func() error {
				_, err := DecodeWireResult(bytes.NewReader(data))
				return err
			},
			"wire.NewReader": func() error {
				r, err := wire.NewReader(bytes.NewReader(data))
				for err == nil {
					_, err = r.ReadFrame()
				}
				return err
			},
		} {
			if err := decode(); !errors.Is(err, ErrWireTruncated) {
				t.Fatalf("container %d, %s: got %v, want ErrWireTruncated", i, entry, err)
			}
		}
	}
}

// containerErrors are the typed errors a container decode may fail
// with.
var containerErrors = []error{
	ErrWireBadMagic, ErrWireVersion, ErrWireChecksum, ErrWireTruncated, ErrWireLimit,
	ErrWireConfig, ErrWireDictFrame, wire.ErrFrameType, ErrDictNotFound,
}

func typedContainerErr(err error) bool {
	for _, e := range containerErrors {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// regionsVerify reports whether every region of data reads back intact
// through the wire reader. Only such a container can fail past the
// format checks, with a configuration or code-stream error the format
// cannot vouch for.
func regionsVerify(data []byte) bool {
	r, err := wire.NewReader(bytes.NewReader(data))
	for err == nil {
		_, err = r.ReadFrame()
	}
	return errors.Is(err, io.EOF) || !typedContainerErr(err)
}

// TestWireBadConfigHeader: a checksum-valid header carrying an unknown
// policy, or a dictionary smaller than its literal space, fails with
// ErrWireConfig through every entry that reads a container.
func TestWireBadConfigHeader(t *testing.T) {
	for name, cfg := range map[string]Config{
		"fill=9":           {CharBits: 8, DictSize: 512, Fill: 9},
		"DictSize < 2^C_C": {CharBits: 8, DictSize: 255},
	} {
		data := wire.EncodeHeader(wire.Header{Cfg: cfg, Width: 8})
		t.Run(name, func(t *testing.T) {
			for entry, decode := range map[string]func() error{
				"Decompress": func() error { _, err := Decompress(context.Background(), bytes.NewReader(data), Options{}); return err },
				"DecodeWireResult": func() error {
					_, err := DecodeWireResult(bytes.NewReader(data))
					return err
				},
				"wire.NewReader": func() error { _, err := wire.NewReader(bytes.NewReader(data)); return err },
			} {
				if err := decode(); !errors.Is(err, ErrWireConfig) {
					t.Fatalf("%s: got %v, want ErrWireConfig", entry, err)
				}
			}
		})
	}
}

// Container decodes may allocate containerOverhead bytes whatever they
// read, plus containerPerByte for each byte of the container. The
// overhead covers a cold dictionary for the seeds' largest N, 1024 codes
// at about 500 B each, which the arena hands out again on later calls;
// the per-byte term covers the output: a decoded pattern costs its two
// planes and a 56-byte header.
const (
	containerOverhead = 1 << 20
	containerPerByte  = 1 << 10
)

// FuzzContainerDecode feeds arbitrary bytes to every entry that reads a
// container: Decompress, and its two steps DecodeWireResult and
// Result.Decompress called apart. Each call must return a typed error
// or a well-formed set, and allocate no more than containerOverhead
// plus containerPerByte per byte, however large the shape the
// container claims; that holds Decompress to it with every frame's
// codes read before the first frame decodes. Every set decoded is
// released, so later inputs decode into recycled memory.
func FuzzContainerDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LZWW\x01"))
	paths, err := filepath.Glob(filepath.Join("testdata", "conformance", "*.lzw"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range hostileShapes(f) {
		f.Add(data)
	}
	for _, data := range dataLessContainers(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := containerOverhead + containerPerByte*uint64(len(data))
		var set *TestSet
		var err error
		if n := allocBytes(func() { set, err = Decompress(context.Background(), bytes.NewReader(data), Options{}) }); n > limit {
			t.Fatalf("Decompress allocated %d bytes for a %d-byte container", n, len(data))
		}
		checkDecoded(t, data, set, err)
		set.Release()

		var res *Result
		if n := allocBytes(func() { res, err = DecodeWireResult(bytes.NewReader(data)) }); n > limit {
			t.Fatalf("DecodeWireResult allocated %d bytes for a %d-byte container", n, len(data))
		}
		if err != nil {
			checkDecoded(t, data, nil, err)
			return
		}
		if n := allocBytes(func() { set, err = res.Decompress(context.Background(), Options{}) }); n > limit {
			t.Fatalf("Result.Decompress allocated %d bytes for a %d-byte container", n, len(data))
		}
		checkDecoded(t, data, set, err)
		set.Release()
	})
}

// checkDecoded requires a typed error, an error only a fully verified
// container can reach, or a fully specified set of the header's width.
func checkDecoded(t *testing.T, data []byte, set *TestSet, err error) {
	t.Helper()
	if err != nil {
		if !typedContainerErr(err) && !regionsVerify(data) {
			t.Fatalf("untyped error from a container that fails its checks: %v", err)
		}
		return
	}
	for i, c := range set.Cubes {
		if c.Len() != set.Width || c.XCount() != 0 {
			t.Fatalf("pattern %d: width %d, %d X bits; want width %d, fully specified", i, c.Len(), c.XCount(), set.Width)
		}
	}
}
