// Planes-path tests: a test set sent as cube planes and the same set
// sent as cube text must be indistinguishable in every reply, both
// encodings must count their real bytes, and a planes body may never
// decode under parameters other than the query's.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/server"
	"lzwtc/internal/wire"
)

// curlForm is the Content-Type curl sends with --data-binary.
const curlForm = "application/x-www-form-urlencoded"

// startPlanesService hosts a service and returns a client for it, the
// server and its base URL.
func startPlanesService(t *testing.T) (*client.Client, *server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{JobConcurrent: 4})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL, client.Options{Retries: 0}), srv, hs.URL
}

// cubeText renders ts as the text body curl would upload.
func cubeText(t *testing.T, ts *lzwtc.TestSet) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ts.WriteCubes(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// planesOf renders ts as a planes message under cfg.
func planesOf(t *testing.T, ts *lzwtc.TestSet, cfg lzwtc.Config) []byte {
	t.Helper()
	var msg bytes.Buffer
	if err := wire.WritePlanes(&msg, wire.Header{Cfg: cfg, Width: ts.Width}, ts); err != nil {
		t.Fatal(err)
	}
	return msg.Bytes()
}

// send issues one raw request and returns the response with its body
// read in full.
func send(t *testing.T, method, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// sendOK is send requiring a 2xx reply.
func sendOK(t *testing.T, method, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, data := send(t, method, url, contentType, accept, body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	return resp, data
}

// textJob submits a cube-text body to the job tier and returns the
// finished job's container.
func textJob(t *testing.T, c *client.Client, base string, q url.Values, text []byte) []byte {
	t.Helper()
	_, data := sendOK(t, http.MethodPost, base+server.PathJobsCompress+"?"+q.Encode(), curlForm, "", text)
	var st client.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	waitJobFast(t, c, st.ID)
	out, err := c.JobResult(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameCubes fails unless got and want hold the same cubes in order.
func sameCubes(t *testing.T, got, want *lzwtc.TestSet) {
	t.Helper()
	if got.Width != want.Width || len(got.Cubes) != len(want.Cubes) {
		t.Fatalf("got %d x %d, want %d x %d", len(got.Cubes), got.Width, len(want.Cubes), want.Width)
	}
	for i := range want.Cubes {
		if !got.Cubes[i].Equal(want.Cubes[i]) {
			t.Fatalf("pattern %d differs", i)
		}
	}
}

// TestPlanesUploadDifferential: for every conformance case, sync and
// job, sharded and unsharded, with and without a stored dictionary, a
// planes upload through the client and a text upload over raw HTTP get
// byte-identical containers back. Training a dictionary from planes or
// from text gives the same key. Every container decompresses to the
// same patterns as a planes reply (client) and as a text reply (raw
// HTTP without Accept), and a raw planes reply declares its exact size
// and the container's header.
func TestPlanesUploadDifferential(t *testing.T) {
	c, _, base := startPlanesService(t)
	ctx := context.Background()
	for name, cfg := range corpusCases() {
		t.Run(name, func(t *testing.T) {
			ts := readCorpusSet(t, name)
			text := cubeText(t, ts)

			dictCfg := dictCorpusCases()[name]
			info, err := c.TrainDict(ctx, ts, dictCfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, data := sendOK(t, http.MethodPut, base+server.PathDict+"?"+server.EncodeCompressQuery(dictCfg, 0).Encode(), curlForm, "", text)
			var textInfo client.DictInfo
			if err := json.Unmarshal(data, &textInfo); err != nil {
				t.Fatal(err)
			}
			if textInfo.Key != info.Key || textInfo.Digest != info.Digest {
				t.Fatalf("text training stored %s, planes training %s", textInfo.Key, info.Key)
			}

			for _, dict := range []bool{false, true} {
				for _, shard := range []int{0, 3} {
					run, opts := cfg, client.CompressOptions{ShardPatterns: shard}
					q := server.EncodeCompressQuery(cfg, shard)
					if dict {
						run, opts.DictID = dictCfg, info.Key
						q = server.EncodeCompressQuery(run, shard)
						q.Set(server.ParamDictID, info.Key)
					}
					planes, err := c.Compress(ctx, ts, run, opts)
					if err != nil {
						t.Fatal(err)
					}
					_, textSync := sendOK(t, http.MethodPost, base+server.PathCompress+"?"+q.Encode(), curlForm, "", text)
					st, err := c.SubmitCompressJob(ctx, ts, run, opts)
					if err != nil {
						t.Fatal(err)
					}
					waitJobFast(t, c, st.ID)
					planesJob, err := c.JobResult(ctx, st.ID)
					if err != nil {
						t.Fatal(err)
					}
					textAsync := textJob(t, c, base, q, text)
					for what, got := range map[string][]byte{"sync text": textSync, "job planes": planesJob, "job text": textAsync} {
						if !bytes.Equal(got, planes) {
							t.Fatalf("dict=%t shard=%d: %s container (%d bytes) differs from sync planes (%d bytes)", dict, shard, what, len(got), len(planes))
						}
					}

					filled, err := c.Decompress(ctx, planes)
					if err != nil {
						t.Fatal(err)
					}
					resp, textReply := sendOK(t, http.MethodPost, base+server.PathDecompress, "application/octet-stream", "", planes)
					if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
						t.Fatalf("reply without Accept has Content-Type %q", ct)
					}
					fromText, err := lzwtc.ReadTestSet(bytes.NewReader(textReply))
					if err != nil {
						t.Fatal(err)
					}
					sameCubes(t, filled, fromText)
					if err := lzwtc.Verify(ts, filled); err != nil {
						t.Fatal(err)
					}

					resp, planesReply := sendOK(t, http.MethodPost, base+server.PathDecompress, "application/octet-stream",
						"text/plain;q=0.5, "+server.MediaPlanes, planes)
					if ct := resp.Header.Get("Content-Type"); ct != server.MediaPlanes {
						t.Fatalf("reply with Accept has Content-Type %q", ct)
					}
					if resp.ContentLength != int64(len(planesReply)) || len(resp.TransferEncoding) != 0 {
						t.Fatalf("planes reply of %d bytes declared %d (transfer encoding %v)", len(planesReply), resp.ContentLength, resp.TransferEncoding)
					}
					hdr, fromPlanes, err := wire.ReadPlanes(bytes.NewReader(planesReply))
					if err != nil {
						t.Fatal(err)
					}
					if hdr.Cfg != run || hdr.Width != ts.Width {
						t.Fatalf("planes reply header %+v, want the container's %+v width %d", hdr, run, ts.Width)
					}
					sameCubes(t, fromPlanes, fromText)
				}
			}
		})
	}
}

// TestPlanesBodyMustMatchQuery: a planes body whose header names a
// Config other than the query's, or that fails to decode, is a 400
// bad_request on every endpoint that reads a test set; nothing decodes
// under other parameters.
func TestPlanesBodyMustMatchQuery(t *testing.T) {
	_, _, base := startPlanesService(t)
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := corpusCases()["cc4-freeze"]
	other := cfg
	other.DictSize *= 2
	mismatched := planesOf(t, ts, other)
	corrupt := planesOf(t, ts, cfg)
	corrupt[len(corrupt)/2] ^= 1
	q := "?" + server.EncodeCompressQuery(cfg, 0).Encode()
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, server.PathCompress},
		{http.MethodPost, server.PathJobsCompress},
		{http.MethodPut, server.PathDict},
	} {
		for what, body := range map[string][]byte{"mismatched config": mismatched, "corrupt frame": corrupt} {
			resp, data := send(t, ep.method, base+ep.path+q, server.MediaPlanes, "", body)
			var env server.ErrorBody
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &env) != nil || env.Error.Code != server.CodeBadRequest {
				t.Fatalf("%s %s with %s: status %d %s, want 400 %s", ep.method, ep.path, what, resp.StatusCode, data, server.CodeBadRequest)
			}
		}
	}
}

// TestBytesInCountsRealBytes: lzwtcd_bytes_in_total advances by the
// length of each request body as sent — text as curl sends it, planes,
// and a CRLF text file with a comment and a blank line — on compress,
// dictionary training and decompress.
func TestBytesInCountsRealBytes(t *testing.T) {
	_, srv, base := startPlanesService(t)
	ts := readCorpusSet(t, "cc8-default")
	cfg := corpusCases()["cc8-default"]
	text := cubeText(t, ts)
	crlf := append([]byte("# exported on a CRLF host\r\n\r\n"), bytes.ReplaceAll(text, []byte("\n"), []byte("\r\n"))...)
	planes := planesOf(t, ts, cfg)
	bytesIn := func() int64 { return srv.Registry().Snapshot().CounterValue(server.MetricBytesIn) }

	var container []byte
	for _, body := range []struct {
		name, contentType string
		data              []byte
	}{{"text", curlForm, text}, {"planes", server.MediaPlanes, planes}, {"crlf text", "text/plain", crlf}} {
		for _, ep := range []struct{ method, path string }{
			{http.MethodPost, server.PathCompress},
			{http.MethodPut, server.PathDict},
		} {
			before := bytesIn()
			_, reply := sendOK(t, ep.method, base+ep.path+"?"+server.EncodeCompressQuery(cfg, 0).Encode(), body.contentType, "", body.data)
			if got := bytesIn() - before; got != int64(len(body.data)) {
				t.Fatalf("%s %s: counter advanced %d, body is %d bytes", body.name, ep.path, got, len(body.data))
			}
			if ep.path == server.PathCompress {
				container = reply
			}
		}
	}
	before := bytesIn()
	sendOK(t, http.MethodPost, base+server.PathDecompress, "application/octet-stream", server.MediaPlanes, container)
	if got := bytesIn() - before; got != int64(len(container)) {
		t.Fatalf("decompress: counter advanced %d, container is %d bytes", got, len(container))
	}
}

// TestClientRejectsTextReply: the client decodes only planes replies; a
// service that answers decompress with text gets an error naming the
// type it sent, not a text fallback.
func TestClientRejectsTextReply(t *testing.T) {
	ts := readCorpusSet(t, "cc4-freeze")
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(cubeText(t, ts))))
		w.Write(cubeText(t, ts)) //nolint:errcheck // test double
	}))
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, client.Options{Retries: 0})
	_, err := c.Decompress(context.Background(), []byte("container"))
	if err == nil || !strings.Contains(err.Error(), "text/plain") {
		t.Fatalf("got %v, want an error naming text/plain", err)
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("got an API error %v for a 200 reply", apiErr)
	}
}
