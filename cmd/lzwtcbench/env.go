package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// clients is the closed loop's width: two callers, each waiting for its
// reply before sending the next request.
const clients = 2

// drainTimeout bounds the server's graceful shutdown at the end of a run.
const drainTimeout = 10 * time.Second

// env is one set-up: the workload's inputs and references and, for the
// service workloads, an lzwtcd serving on loopback.
type env struct {
	w      workload
	inputs []*input
	sink   *spanSink // nil unless the run is traced

	url        string
	transports []*http.Transport // one per load client, so each keeps its own connection
	stopServer context.CancelFunc
	served     chan error
}

// setup starts the server (service workloads), generates the inputs,
// trains the dictionary (warm_dict), computes the references and runs
// one untimed, verified warm-up op per input per client, which fills
// the dictionary arenas, the store's LRU and the keep-alive connections.
func setup(ctx context.Context, w workload, seed int64, sink *spanSink) (*env, error) {
	e := &env{w: w, sink: sink}
	if w.kind != kindLocal {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	e.inputs = w.inputs(seed)
	for _, in := range e.inputs {
		if in.train != nil {
			if err := storeDict(ctx, e.client(0, nil), in); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := computeReference(ctx, in); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	err := e.parallel(func(c int) error {
		cl := e.client(c, nil)
		for _, in := range e.inputs {
			if _, _, err := e.op(ctx, cl, nil, in); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// startServer runs lzwtcd's server, with lzwtcd's defaults, on a
// loopback port. A traced run adds the span sink to the server's sinks.
func (e *env) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var cfg server.Config
	if e.sink != nil {
		cfg.Sinks = []telemetry.Sink{e.sink}
	}
	srv := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	e.url = "http://" + ln.Addr().String()
	e.stopServer = cancel
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(ctx, ln, drainTimeout) }()
	for i := 0; i < clients; i++ {
		e.transports = append(e.transports, &http.Transport{MaxIdleConnsPerHost: 1})
	}
	return nil
}

// close drains and stops the server and waits for it.
func (e *env) close() error {
	if e.stopServer == nil {
		return nil
	}
	for _, tr := range e.transports {
		tr.CloseIdleConnections()
	}
	e.stopServer()
	err := <-e.served
	e.stopServer = nil
	return err
}

// client returns load client c's view of the service; rec, when
// non-nil, records its client.request spans.
func (e *env) client(c int, rec *telemetry.Recorder) *client.Client {
	if e.url == "" {
		return nil
	}
	return client.New(e.url, client.Options{
		HTTPClient: &http.Client{Transport: e.transports[c]},
		APIKey:     fmt.Sprintf("bench-%d", c),
		Recorder:   rec,
	})
}

// parallel runs fn once per load client, concurrently, and returns the
// first error.
func (e *env) parallel(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// op runs one round trip on in and checks both replies. The returned
// durations time the compress and the decompress call; checking happens
// outside them. rec, when non-nil, records the op's benchmark spans.
func (e *env) op(ctx context.Context, cl *client.Client, rec *telemetry.Recorder, in *input) (comp, decomp time.Duration, err error) {
	ctx, opSpan := rec.StartSpan(ctx, spanOp)
	defer opSpan.End()

	cctx, sp := rec.StartSpan(ctx, spanCompress)
	start := time.Now()
	var container []byte
	switch e.w.kind {
	case kindSync:
		container, err = cl.Compress(cctx, in.ts, in.cfg, client.CompressOptions{})
	case kindDict:
		container, err = cl.Compress(cctx, in.ts, in.cfg, client.CompressOptions{DictID: in.dictID})
	case kindAsync:
		container, err = compressJob(cctx, cl, in)
	case kindLocal:
		container, err = compressLocal(cctx, rec, in)
	}
	comp = time.Since(start)
	sp.End()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: compress: %w", in.name, err)
	}
	if err := in.checkContainer(container); err != nil {
		return 0, 0, err
	}

	dctx, sp := rec.StartSpan(ctx, spanDecompress)
	start = time.Now()
	var filled *lzwtc.TestSet
	var text []byte
	if e.w.kind == kindLocal {
		filled, text, err = decompressLocal(dctx, rec, container)
	} else {
		filled, err = cl.Decompress(dctx, container)
	}
	decomp = time.Since(start)
	sp.End()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: decompress: %w", in.name, err)
	}
	if err := in.checkFilled(filled); err != nil {
		return 0, 0, err
	}
	if text != nil && !bytes.Equal(text, in.filledText) {
		return 0, 0, fmt.Errorf("%s: rendered cube text differs from the reference", in.name)
	}
	return comp, decomp, nil
}

// compressJob is the async path: submit, poll until done, fetch.
func compressJob(ctx context.Context, cl *client.Client, in *input) ([]byte, error) {
	st, err := cl.SubmitCompressJob(ctx, in.ts, in.cfg, client.CompressOptions{ShardPatterns: in.shard})
	if err != nil {
		return nil, err
	}
	if _, err := cl.WaitJob(ctx, st.ID, pollInterval); err != nil {
		return nil, err
	}
	return cl.JobResult(ctx, st.ID)
}

// compressLocal is `lzwtc compress -wire`: parse the cube text,
// compress, write the wire container. It calls the library's
// instrumented entry points, which with a nil recorder are the plain
// ones and in a traced run record the core and wire spans.
func compressLocal(ctx context.Context, rec *telemetry.Recorder, in *input) ([]byte, error) {
	ts, err := lzwtc.ReadTestSet(bytes.NewReader(in.text))
	if err != nil {
		return nil, err
	}
	res, err := lzwtc.CompressObservedCtx(ctx, ts, in.cfg, rec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.WriteWireObserved(ctx, &buf, rec)
	return buf.Bytes(), err
}

// decompressLocal is `lzwtc decompress`: decode the container and
// render the filled cubes as text.
func decompressLocal(ctx context.Context, rec *telemetry.Recorder, container []byte) (*lzwtc.TestSet, []byte, error) {
	ts, err := lzwtc.DecompressWireObserved(ctx, bytes.NewReader(container), rec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := ts.WriteCubes(&buf); err != nil {
		return nil, nil, err
	}
	return ts, buf.Bytes(), nil
}
