package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
)

func TestTrainProducesPrefixClosedStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stream := randomCube(rng, 8000, 0.85)
	cfg := Config{CharBits: 4, DictSize: 256, EntryBits: 32}
	pre, err := TrainSet(oneCube(stream), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Entries() == 0 {
		t.Fatal("training built nothing")
	}
	// Installing into a fresh dictionary must succeed (prefix closure).
	d := newDict(cfg)
	if err := d.preload(pre); err != nil {
		t.Fatal(err)
	}
	if int(d.next) != cfg.Literals()+pre.Entries() {
		t.Fatalf("next = %d after %d entries", d.next, pre.Entries())
	}
}

func TestTrainMaxEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stream := randomCube(rng, 8000, 0.85)
	cfg := Config{CharBits: 4, DictSize: 256, EntryBits: 32}
	pre, err := TrainSet(oneCube(stream), cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Entries() != 10 {
		t.Fatalf("entries = %d", pre.Entries())
	}
}

func TestPreloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := Config{CharBits: 4, DictSize: 512, EntryBits: 32}
	train := randomCube(rng, 12000, 0.85)
	pre, err := TrainSet(oneCube(train), cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	payload := randomCube(rng, 6000, 0.85)
	res, err := CompressWithPreload(payload, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecompressWithPreload(res.Codes, cfg, pre, payload.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !payload.CompatibleWith(out) {
		t.Fatal("preloaded round trip violates care bits")
	}
	// A cold decoder must NOT accept the warm stream (codes reference
	// preloaded entries).
	if cold, err := Decompress(res.Codes, cfg, payload.Len()); err == nil && payload.CompatibleWith(cold) {
		t.Fatal("cold decoder decoded a warm stream compatibly — preload had no effect")
	}
}

func TestPreloadImprovesSimilarPayload(t *testing.T) {
	// Training and payload drawn from the same generator: the warm
	// dictionary should compress the payload better than a cold start.
	rng := rand.New(rand.NewSource(31))
	cfg := Config{CharBits: 7, DictSize: 1024, EntryBits: 63}
	full := randomCube(rng, 60000, 0.9)
	// Same distribution: first half trains, second half is the payload.
	train := bitvec.New(30000)
	payload := bitvec.New(30000)
	for i := 0; i < 30000; i++ {
		if b := full.Get(i); b != bitvec.X {
			train.Set(i, b)
		}
		if b := full.Get(30000 + i); b != bitvec.X {
			payload.Set(i, b)
		}
	}
	pre, err := TrainSet(oneCube(train), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compress(payload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CompressWithPreload(payload, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Ratio() <= cold.Stats.Ratio() {
		t.Fatalf("warm %.4f <= cold %.4f", warm.Stats.Ratio(), cold.Stats.Ratio())
	}
}

func TestPreloadErrors(t *testing.T) {
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8}
	cases := []*Preload{
		{Strings: [][]uint64{{1}}},             // too short
		{Strings: [][]uint64{{1, 2, 3, 0, 1}}}, // exceeds entry bound (4 max)
		{Strings: [][]uint64{{1, 2}, {1, 2}}},  // duplicate
		{Strings: [][]uint64{{1, 2, 3}}},       // not prefix-closed
		{Strings: [][]uint64{{7, 1}}},          // invalid leading literal
	}
	for i, pre := range cases {
		fresh := newDict(cfg)
		if err := fresh.preload(pre); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// FullReset incompatibility.
	rcfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8, Full: FullReset}
	if _, err := TrainSet(oneCube(bitvec.MustParse("0101")), rcfg, 0); err == nil {
		t.Error("training with FullReset accepted")
	}
	pre := &Preload{Strings: [][]uint64{{1, 2}}}
	if _, err := CompressWithPreload(bitvec.MustParse("0101"), rcfg, pre); err == nil {
		t.Error("FullReset compress with preload accepted")
	}
	if _, err := DecompressWithPreload([]Code{1}, rcfg, pre, 2); err == nil {
		t.Error("FullReset decompress with preload accepted")
	}
}

// Property: warm compression/decompression round-trips for arbitrary
// training and payload streams.
func TestQuickPreloadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{CharBits: 3, DictSize: 64, EntryBits: 12}
		train := randomCube(rng, rng.Intn(3000), 0.8)
		payload := randomCube(rng, rng.Intn(2000), 0.8)
		pre, err := TrainSet(oneCube(train), cfg, 0)
		if err != nil {
			return false
		}
		res, err := CompressWithPreload(payload, cfg, pre)
		if err != nil {
			return false
		}
		out, err := DecompressWithPreload(res.Codes, cfg, pre, payload.Len())
		if err != nil {
			return false
		}
		return payload.Len() == 0 || payload.CompatibleWith(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
