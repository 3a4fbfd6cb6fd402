package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// refCompress is the per-character reference compressor: the Figure 3
// loop, one character at a time, over the map matcher (refMatcher) and
// the per-bit fill (refFill), run on the set's aligned stream. It keeps
// its own entry lengths and last characters and threads FillRepeat's
// previous stream bit through every character, so it shares no match,
// fill or dictionary code with the production body: the production
// loop's fast arms, the all-X walk and its jump included, are held to
// the plain algorithm. The preload must be one TrainSet built for cfg.
func refCompress(cs *bitvec.CubeSet, cfg Config, pre *Preload) (*Result, error) {
	if err := checkPreload(cfg, pre); err != nil {
		return nil, err
	}
	stream := cs.SerializeAligned(cfg.CharBits)
	cc := cfg.CharBits
	fullMask := uint64(1)<<uint(cc) - 1
	lits := cfg.Literals()
	m := newRefMatcher(cfg)
	length := make([]int, cfg.DictSize)
	last := make([]uint64, cfg.DictSize)
	for c := range lits {
		length[c], last[c] = 1, uint64(c)
	}
	next := lits
	add := func(parent Code, char uint64) Code {
		c := Code(next)
		next++
		m.add(parent, char, c)
		length[c], last[c] = length[parent]+1, char
		return c
	}
	if pre != nil {
		for _, s := range pre.Strings {
			cur := Code(s[0])
			for _, ch := range s[1 : len(s)-1] {
				cur, _ = m.findChild(cur, ch, fullMask, fullMask)
			}
			add(cur, s[len(s)-1])
		}
	}

	res := &Result{Cfg: cfg, InputBits: stream.Len()}
	st := &res.Stats
	st.InputBits = stream.Len()
	nChars := stream.Len() / cc
	if nChars == 0 {
		return res, nil
	}
	var lastBit uint64 // the previous stream bit, after X assignment
	fill := func(val, care uint64) uint64 {
		out, _ := refFill(val, care, cc, cfg.Fill, lastBit)
		return out
	}
	emit := func(c Code) {
		res.Codes = append(res.Codes, c)
		st.MaxMatchChars = max(st.MaxMatchChars, length[c])
		if int(c) < lits {
			st.LiteralCodes++
		} else {
			st.StringCodes++
		}
	}
	// room is the dictionary-full policy ahead of an add under parent.
	room := func(parent Code) bool {
		if next < cfg.DictSize {
			return true
		}
		if cfg.Full == FullFreeze || lits >= cfg.DictSize {
			return false
		}
		m.reset()
		next = lits
		st.DictResets++
		return int(parent) < lits
	}

	val, care := stream.Chunk(0, cc)
	if care != fullMask {
		st.ResidualFills++
	}
	buffer := Code(fill(val, care))
	lastBit = last[buffer] >> uint(cc-1) & 1
	for i := 1; i < nChars; i++ {
		val, care := stream.Chunk(i*cc, cc)
		if child, ok := m.findChild(buffer, val, care, fullMask); ok {
			if care != fullMask {
				st.DynamicFills++
			}
			buffer = child
			lastBit = last[buffer] >> uint(cc-1) & 1
			continue
		}
		emit(buffer)
		concrete := fill(val, care)
		if care != fullMask {
			st.ResidualFills++
		}
		if length[buffer]+1 <= cfg.MaxChars() && room(buffer) {
			c := add(buffer, concrete)
			st.DictEntries++
			st.MaxEntryChars = max(st.MaxEntryChars, length[c])
		}
		buffer = Code(concrete)
		lastBit = concrete >> uint(cc-1) & 1
	}
	emit(buffer)
	st.Chars = nChars
	st.CodesEmitted = len(res.Codes)
	st.CompressedBits = len(res.Codes) * cfg.CodeBits()
	return res, nil
}

// clusteredCube builds a cube whose X bits come in runs: alternating
// care and X runs of random length, with X making up about xDensity of
// the bits (0 is fully specified). Long X runs carry the all-X
// characters the compressor walks; the care runs between them stop the
// walk at every offset within a character.
func clusteredCube(rng *rand.Rand, n int, xDensity float64) *bitvec.Vector {
	v := bitvec.New(n)
	const meanRun = 24
	for i := 0; i < n; {
		if rng.Float64() >= xDensity {
			for end := min(n, i+1+rng.Intn(2*meanRun)); i < end; i++ {
				v.Set(i, bitvec.Bit(rng.Intn(2)))
			}
		} else {
			i += 1 + rng.Intn(2*meanRun)
		}
	}
	return v
}

// TestCompressMatchesReference holds the production compress body to
// refCompress: the same codes and Stats over C_C 1–16, every tie-break,
// fill and dictionary-full policy, cold and preloaded, clustered X
// densities from 0 to 0.99, widths that C_C does not divide, and one to
// several patterns. Every case also runs traced, where the all-X walk
// steps instead of jumping, and must give the same codes with one Figure
// 3 event per character plus the final flush.
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	densities := []float64{0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99}
	for cc := 1; cc <= 16; cc++ {
		entryBits := []int{63, 0, 3 * cc}
		for _, tie := range []TieBreak{TieOldest, TieNewest, TieWidest} {
			for _, fill := range []FillPolicy{FillZero, FillOne, FillRepeat} {
				for _, full := range []FullPolicy{FullFreeze, FullReset} {
					cfg := Config{CharBits: cc, DictSize: 1<<uint(cc) + 40 + rng.Intn(40),
						EntryBits: entryBits[rng.Intn(len(entryBits))], Fill: fill, Tie: tie, Full: full}
					pres := []*Preload{nil}
					if full == FullFreeze {
						pre, err := TrainSet(oneCube(clusteredCube(rng, 30*cc+200, 0.9)), cfg, 24)
						if err != nil {
							t.Fatal(err)
						}
						pres = append(pres, pre)
					}
					for _, pre := range pres {
						for _, xd := range densities {
							width := cc*(3+rng.Intn(12)) + 1 + rng.Intn(max(cc-1, 1))
							cs := bitvec.NewCubeSet(width)
							for range 1 + rng.Intn(6) {
								cs.Cubes = append(cs.Cubes, clusteredCube(rng, width, xd))
							}
							name := fmt.Sprintf("cc=%d %v/%v/%v entry=%d N=%d preload=%d x=%.2f width=%d patterns=%d",
								cc, tie, fill, full, cfg.EntryBits, cfg.DictSize, pre.Entries(), xd, width, len(cs.Cubes))
							compareWithReference(t, name, cs, cfg, pre)
						}
					}
				}
			}
		}
	}
}

func compareWithReference(t *testing.T, name string, cs *bitvec.CubeSet, cfg Config, pre *Preload) {
	t.Helper()
	want, err := refCompress(cs, cfg, pre)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := CompressWithPreloadObservedCtx(context.Background(), cs, cfg, pre, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got.Codes, want.Codes) || got.Stats != want.Stats {
		t.Fatalf("%s: compress differs from the reference\n got %v\n    %+v\nwant %v\n    %+v",
			name, got.Codes, got.Stats, want.Codes, want.Stats)
	}
	steps := 0
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == EventCompressStep {
			steps++
		}
	}))
	traced, err := CompressWithPreloadObservedCtx(context.Background(), cs, cfg, pre, rec)
	if err != nil {
		t.Fatalf("%s: traced: %v", name, err)
	}
	if !slices.Equal(traced.Codes, want.Codes) || traced.Stats != want.Stats {
		t.Fatalf("%s: traced compress differs from the reference", name)
	}
	if steps != want.Stats.Chars+1 {
		t.Fatalf("%s: %d trace steps for %d characters", name, steps, want.Stats.Chars)
	}
}
