package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/bench"
	"lzwtc/internal/dictstore"
)

// kind is how a workload's op reaches the compressor.
type kind int

const (
	kindSync  kind = iota // client.Compress, then client.Decompress
	kindAsync             // job submit, poll, result fetch, then client.Decompress
	kindDict              // client.Compress naming a stored dictionary, then client.Decompress
	kindLocal             // the library in-process, as the lzwtc CLI runs it
)

// workload is one named traffic mix. Every workload is a closed loop of
// two clients in one process: callers of this service (the CLI, ATE flow
// scripts, lzwtcload) wait for each reply before sending the next.
type workload struct {
	name string
	kind kind
	// tail caps the tail quantile reported for each input. It is fixed
	// per workload, below where the ≥10-samples-beyond rule starts to
	// bite at the default run length, so runs of one workload always
	// compare the same quantile.
	tail float64
	// inputs builds the workload's test sets from the seed.
	inputs func(seed int64) []*input
}

// Workload names, in BENCHMARK.json order.
var workloads = []workload{
	{name: "paper_sync", kind: kindSync, tail: 0.9, inputs: paperInputs},
	{name: "bulk_async", kind: kindAsync, tail: 0.95, inputs: bulkInputs},
	{name: "warm_dict", kind: kindDict, tail: 0.99, inputs: dictInputs},
	{name: "local_cli", kind: kindLocal, tail: 0.9, inputs: paperInputs},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// bulkPatterns and bulkShard size the bulk_async job: 8192 s5378
	// patterns (≈1.8 MB of cube text) in frames of 1024 patterns.
	bulkPatterns = 8192
	bulkShard    = 1024
	// pollInterval is the bulk_async status poll period. The client's
	// 50 ms default would quantize job latency and hide gains.
	pollInterval = 2 * time.Millisecond
)

// input is one test set a workload sends, with everything needed to
// check each reply against it.
type input struct {
	name  string
	ts    *lzwtc.TestSet // the generated cubes
	text  []byte         // the cube text the server or the CLI receives
	cfg   lzwtc.Config
	shard int // patterns per frame; 0 = one frame

	// warm_dict only: the training half and the stored dictionary.
	train  *lzwtc.TestSet
	dictID string
	pre    *lzwtc.Preload
	ref    lzwtc.DictRef

	// References, computed in-process during set-up.
	sharded    *lzwtc.ShardedResult
	container  []byte         // expected compress reply
	filled     *lzwtc.TestSet // expected decompress reply
	filledText []byte         // filled as cube text
}

// deriveSeed mixes the run seed into a profile's fixed seed
// (splitmix64), so every profile's cubes change with the run seed and
// no two profiles share a stream.
func deriveSeed(seed, profileSeed int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(profileSeed)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

func cubeText(ts *lzwtc.TestSet) []byte {
	var b bytes.Buffer
	_ = ts.WriteCubes(&b) //nolint:errcheck // bytes.Buffer writes cannot fail
	return b.Bytes()
}

// paperInputs is the paper's Table 3: the twelve profiles, each at its
// own dictionary size under the default configuration.
func paperInputs(seed int64) []*input {
	var out []*input
	for _, p := range bench.Profiles() {
		p.Seed = deriveSeed(seed, p.Seed)
		cfg := lzwtc.DefaultConfig()
		cfg.DictSize = p.DictSize
		ts := p.Generate()
		out = append(out, &input{name: p.Name, ts: ts, text: cubeText(ts), cfg: cfg})
	}
	return out
}

// bulkInputs is one large s5378-shaped set compressed in frames. It is
// generated as one independent s5378 set per frame: every frame starts
// from a fresh dictionary anyway, and eight independent draws make the
// ratio vary less from seed to seed than one draw of 8192 patterns.
func bulkInputs(seed int64) []*input {
	p, err := bench.ByName("s5378")
	if err != nil {
		panic(err) // the profile table is fixed at compile time
	}
	base := deriveSeed(seed, p.Seed)
	ts := lzwtc.NewTestSet(p.ScanLen)
	p.Patterns = bulkShard
	for b := int64(0); b < bulkPatterns/bulkShard; b++ {
		p.Seed = deriveSeed(base, b)
		ts.Cubes = append(ts.Cubes, p.Generate().Cubes...)
	}
	return []*input{{name: "s5378x8192", ts: ts, text: cubeText(ts), cfg: lzwtc.DefaultConfig(), shard: bulkShard}}
}

// dictInputs splits s13207 in half: the first half trains the stored
// dictionary, the second is the traffic.
func dictInputs(seed int64) []*input {
	p, err := bench.ByName("s13207")
	if err != nil {
		panic(err) // the profile table is fixed at compile time
	}
	p.Seed = deriveSeed(seed, p.Seed)
	all := p.Generate()
	half := len(all.Cubes) / 2
	train := &lzwtc.TestSet{Width: all.Width, Cubes: all.Cubes[:half]}
	work := &lzwtc.TestSet{Width: all.Width, Cubes: all.Cubes[half:]}
	cfg := lzwtc.Config{CharBits: 8, DictSize: 1024, EntryBits: 64}
	return []*input{{name: "s13207b", ts: work, text: cubeText(work), cfg: cfg, train: train}}
}

// storeDict trains the input's dictionary on the server, fetches it
// back and keeps the decoded preload, so the reference container is
// computed from exactly the dictionary the server compresses with.
func storeDict(ctx context.Context, cl *client.Client, in *input) error {
	info, err := cl.TrainDict(ctx, in.train, in.cfg, 0)
	if err != nil {
		return fmt.Errorf("training dictionary: %w", err)
	}
	blob, err := cl.FetchDict(ctx, info.Key)
	if err != nil {
		return fmt.Errorf("fetching dictionary: %w", err)
	}
	_, pre, err := lzwtc.DecodeDictBlob(blob)
	if err != nil {
		return fmt.Errorf("decoding dictionary: %w", err)
	}
	key, err := lzwtc.ParseDictKey(info.Key)
	if err != nil {
		return err
	}
	digest := dictstore.BlobDigest(blob)
	if digest.String() != info.Digest {
		return fmt.Errorf("dictionary digest %s, server reported %s", digest, info.Digest)
	}
	in.dictID, in.pre = info.Key, pre
	in.ref = lzwtc.DictRef{Key: key, Digest: digest}
	return nil
}

// computeReference fills in the expected replies, through the library's
// sharded pipeline (one shard when unsharded). The service's sync path
// and the CLI path take other routes through the library, so every
// byte-compare is also a differential check between them.
func computeReference(ctx context.Context, in *input) error {
	var err error
	var buf bytes.Buffer
	if in.pre != nil {
		if in.sharded, err = lzwtc.CompressShardedPreloaded(ctx, in.ts, in.cfg, in.pre, in.shard, lzwtc.BatchOptions{}); err != nil {
			return err
		}
		err = lzwtc.WriteWireDict(&buf, in.sharded, in.ref)
	} else {
		if in.sharded, err = lzwtc.CompressSharded(ctx, in.ts, in.cfg, in.shard, lzwtc.BatchOptions{}); err != nil {
			return err
		}
		err = lzwtc.WriteWireSharded(&buf, in.sharded)
	}
	if err != nil {
		return err
	}
	in.container = buf.Bytes()
	var res lzwtc.DictResolver
	if in.pre != nil {
		res = staticResolver{in.ref, in.pre}
	}
	if in.filled, err = lzwtc.DecompressWireDict(bytes.NewReader(in.container), res); err != nil {
		return fmt.Errorf("decompressing reference: %w", err)
	}
	if err := lzwtc.Verify(in.ts, in.filled); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	in.filledText = cubeText(in.filled)
	return nil
}

// staticResolver resolves exactly one dictionary reference.
type staticResolver struct {
	ref lzwtc.DictRef
	pre *lzwtc.Preload
}

func (r staticResolver) ResolveDict(_ context.Context, ref lzwtc.DictRef) (*lzwtc.Preload, error) {
	if ref != r.ref {
		return nil, lzwtc.ErrDictNotFound
	}
	return r.pre, nil
}

// digest identifies an input and its references, for the determinism
// test.
func (in *input) digest() [32]byte {
	h := sha256.New()
	h.Write(in.text)
	h.Write(in.container)
	h.Write(in.filledText)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// checkContainer byte-compares a compress reply with the reference.
func (in *input) checkContainer(got []byte) error {
	if !bytes.Equal(got, in.container) {
		return fmt.Errorf("%s: compress reply (%d bytes) differs from the reference (%d bytes)",
			in.name, len(got), len(in.container))
	}
	return nil
}

// checkFilled checks a decompress reply: every care bit of the original
// cubes kept, and every pattern equal to the reference's, which is the
// same as the cube texts matching byte for byte.
func (in *input) checkFilled(got *lzwtc.TestSet) error {
	if err := lzwtc.Verify(in.ts, got); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	for i, c := range got.Cubes {
		if !c.Equal(in.filled.Cubes[i]) {
			return fmt.Errorf("%s: decompressed pattern %d differs from the reference", in.name, i)
		}
	}
	return nil
}
