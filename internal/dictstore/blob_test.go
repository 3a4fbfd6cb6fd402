package dictstore

import (
	"errors"
	"testing"

	"lzwtc/internal/core"
)

// testConfig is the blob-test configuration: 16 literals, room for 48
// trained entries.
func testConfig() core.Config {
	return core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
}

// testPreload is a small prefix-closed dictionary in creation order:
// every string extends a literal or an earlier string by one character,
// the exact shape core.TrainSet emits.
func testPreload() *core.Preload {
	return &core.Preload{Strings: [][]uint64{
		{1, 2},
		{1, 2, 3},
		{0, 15},
		{1, 2, 3, 3},
		{0, 15, 7},
	}}
}

// mustBlob encodes the canonical test blob.
func mustBlob(t *testing.T) []byte {
	t.Helper()
	blob, err := EncodeBlob(testConfig(), testPreload())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestBlobRoundTrip(t *testing.T) {
	cfg, pre := testConfig(), testPreload()
	blob, err := EncodeBlob(cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	gotCfg, gotPre, err := DecodeBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("decoded config %+v, want %+v", gotCfg, cfg)
	}
	if gotPre.Entries() != pre.Entries() {
		t.Fatalf("decoded %d entries, want %d", gotPre.Entries(), pre.Entries())
	}
	for i, s := range pre.Strings {
		got := gotPre.Strings[i]
		if len(got) != len(s) {
			t.Fatalf("string %d: decoded %v, want %v", i, got, s)
		}
		for k := range s {
			if got[k] != s[k] {
				t.Fatalf("string %d: decoded %v, want %v", i, got, s)
			}
		}
	}

	// The encoding is canonical: re-encoding the decode reproduces the
	// bytes, so digests converge no matter who serialized.
	again, err := EncodeBlob(gotCfg, gotPre)
	if err != nil {
		t.Fatal(err)
	}
	if BlobDigest(again) != BlobDigest(blob) {
		t.Fatal("re-encoded blob digest differs — encoding is not canonical")
	}
}

func TestBlobEmptyPreload(t *testing.T) {
	blob, err := EncodeBlob(testConfig(), &core.Preload{})
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := DecodeBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Entries() != 0 {
		t.Fatalf("decoded %d entries from an empty blob", pre.Entries())
	}
}

// dictErrorClass reports whether err belongs to the typed decode-error
// contract. Truncation can only surface before the header CRC passes,
// so config validation errors (untyped) are unreachable here.
func dictErrorClass(err error) bool {
	return errors.Is(err, errDictMagic) || errors.Is(err, errDictVersion) ||
		errors.Is(err, ErrDictChecksum) || errors.Is(err, ErrDictTruncated) ||
		errors.Is(err, errDictLimit)
}

// TestBlobTruncationEveryPrefix decodes every strict prefix of a valid
// blob: each must fail with a typed error and never panic or succeed.
func TestBlobTruncationEveryPrefix(t *testing.T) {
	blob := mustBlob(t)
	for i := 0; i < len(blob); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d: decode panicked: %v", i, len(blob), r)
				}
			}()
			_, _, err := DecodeBlob(blob[:i])
			if err == nil {
				t.Fatalf("prefix %d/%d decoded successfully", i, len(blob))
			}
			if !dictErrorClass(err) {
				t.Fatalf("prefix %d/%d: untyped error %v", i, len(blob), err)
			}
		}()
	}
}

// TestBlobSingleBitFlips flips every bit of a valid blob one at a time:
// the CRC32C regions (plus the structural checks) must reject every
// variant — no single-bit corruption may silently misdecode.
func TestBlobSingleBitFlips(t *testing.T) {
	blob := mustBlob(t)
	for i := range blob {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("flip byte %d bit %d: decode panicked: %v", i, bit, r)
					}
				}()
				_, _, err := DecodeBlob(mut)
				if err == nil {
					t.Fatalf("flip byte %d bit %d decoded successfully", i, bit)
				}
			}()
		}
	}
}

func TestDecodeBlobRejects(t *testing.T) {
	blob := mustBlob(t)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrDictTruncated},
		{"not-a-blob", []byte("LZWW1234"), errDictMagic},
		{"future-version", append(append([]byte{}, blob[:4]...), 99), errDictVersion},
		{"trailing-garbage", append(append([]byte{}, blob...), 0xAA), errDictLimit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := DecodeBlob(c.data)
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

func TestEncodeBlobRejects(t *testing.T) {
	cfg := testConfig()
	cases := []struct {
		name string
		cfg  core.Config
		pre  *core.Preload
	}{
		{"full-reset", core.Config{CharBits: 4, DictSize: 64, EntryBits: 16, Full: core.FullReset}, testPreload()},
		{"single-char-string", cfg, &core.Preload{Strings: [][]uint64{{1}}}},
		{"character-overflow", cfg, &core.Preload{Strings: [][]uint64{{1, 16}}}},
		{"not-prefix-closed", cfg, &core.Preload{Strings: [][]uint64{{1, 2, 3}}}},
		{"entry-overflow", core.Config{CharBits: 4, DictSize: 17, EntryBits: 16},
			&core.Preload{Strings: [][]uint64{{1, 2}, {1, 2, 3}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := EncodeBlob(c.cfg, c.pre); err == nil {
				t.Fatal("encode accepted an invalid preload")
			}
		})
	}
}

func TestKeyForSeparation(t *testing.T) {
	corpus := []byte("8\n01XX01XX\n")
	base := KeyFor(corpus, testConfig())
	if other := KeyFor([]byte("8\n01XX01X1\n"), testConfig()); other == base {
		t.Fatal("different corpora derived the same key")
	}
	cfg2 := testConfig()
	cfg2.DictSize = 128
	if other := KeyFor(corpus, cfg2); other == base {
		t.Fatal("different configs derived the same key")
	}
	if again := KeyFor(corpus, testConfig()); again != base {
		t.Fatal("key derivation is not deterministic")
	}
}

func TestParseKey(t *testing.T) {
	key := KeyFor([]byte("corpus"), testConfig())
	parsed, err := ParseKey(key.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != key {
		t.Fatal("ParseKey did not invert String")
	}
	for _, bad := range []string{"", "abc", key.String() + "00", "zz" + key.String()[2:]} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey accepted %q", bad)
		}
	}
}
