package server_test

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"lzwtc"
	"lzwtc/internal/bench"
	"lzwtc/internal/server"
	"lzwtc/internal/wire"
)

// discardWriter is a ResponseWriter that counts the body and keeps
// nothing, so a measurement sees the handler's allocation alone.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// serve runs one request through h and requires a 200 reply of want
// bytes.
func serve(t *testing.T, h http.Handler, target, contentType, accept string, body []byte, want int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", accept)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.n != want {
		t.Fatalf("%s: status %d, %d bytes; want 200, %d bytes", target, w.status, w.n, want)
	}
}

// TestServerAllocBytesPerBit pins the bytes one sync compress and one
// sync decompress, planes bodies both ways, allocate inside the service
// per input bit, once the service is warm. The request's parsed cubes
// and the decompress reply's cubes go back to the slab pool when each
// request ends, and so do the wire buffers, so a warm round trip draws
// most of its memory from what the last one released. What is left is
// mostly the compressor's code column and dictionary growth, which this
// pool does not cover.
//
// Each figure is the fewest bytes over interleaved single round trips,
// as in the root package's TestPipelineAllocBytesPerBit: a GC empties
// the pool, and a miss only ever raises one run's count.
func TestServerAllocBytesPerBit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are meaningless under -race")
	}
	cases := []struct {
		name  string
		bound float64 // B per input bit
	}{
		{"s5378", 1.65}, // 1.50 measured; 3.54 when nothing is recycled
		{"b17", 0.20},   // 0.176 measured; 1.06 when nothing is recycled
	}
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	h := srv.Handler()

	type input struct {
		ts        *lzwtc.TestSet
		target    string
		planes    []byte
		container []byte
		reply     int
		best      float64
	}
	ins := make([]*input, len(cases))
	for i, tc := range cases {
		p, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		ts, cfg := p.Generate(), lzwtc.DefaultConfig()
		cfg.DictSize = p.DictSize
		res, err := lzwtc.Compress(context.Background(), ts, cfg, lzwtc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var container, planes bytes.Buffer
		if err := res.WriteWire(&container); err != nil {
			t.Fatal(err)
		}
		hdr := wire.Header{Cfg: cfg, Width: ts.Width}
		if err := wire.WritePlanes(&planes, hdr, ts); err != nil {
			t.Fatal(err)
		}
		ins[i] = &input{
			ts:        ts,
			target:    server.PathCompress + "?" + server.EncodeCompressQuery(cfg, 0).Encode(),
			planes:    planes.Bytes(),
			container: container.Bytes(),
			reply:     wire.PlanesSize(hdr, len(ts.Cubes)),
			best:      math.Inf(1),
		}
	}
	roundTrip := func(in *input) {
		serve(t, h, in.target, server.MediaPlanes, "", in.planes, len(in.container))
		serve(t, h, server.PathDecompress, "application/octet-stream", server.MediaPlanes, in.container, in.reply)
	}
	for _, in := range ins {
		roundTrip(in) // warm up: fill the pool and the dictionary arena
	}
	var ms runtime.MemStats
	for run := 0; run < 8; run++ {
		for _, in := range ins {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			roundTrip(in)
			runtime.ReadMemStats(&ms)
			in.best = min(in.best, float64(ms.TotalAlloc-before)/float64(in.ts.TotalBits()))
		}
	}
	for i, tc := range cases {
		t.Logf("%s: %.3f B/bit", tc.name, ins[i].best)
		if ins[i].best > tc.bound {
			t.Errorf("%s: a warm sync round trip allocates %.3f B per input bit in the service, bound %.2f", tc.name, ins[i].best, tc.bound)
		}
	}
}
