package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"lzwtc"
	"lzwtc/internal/server"
)

// Shared-dictionary verbs over lzwtcd's /v1/dict endpoints. TrainDict
// asks the service to train (or re-find, content-addressed) a
// dictionary from a test set; PushDict uploads a locally trained LZWD
// blob; FetchDict pulls a blob down for local storage; DeleteDict
// evicts one. The returned DictInfo's Key is what CompressOptions.
// DictID and the dictid query parameter expect.

// DictInfo is one stored dictionary's identity document
// (server.DictResponse re-exported, so callers need not import
// internal packages).
type DictInfo = server.DictResponse

// TrainDict submits a test set for server-side dictionary training and
// returns the stored dictionary's identity. Training is idempotent:
// the same cubes and config always map to the same key, and a repeat
// call is a store hit (Source "mem" or "disk" instead of "trained").
// maxEntries <= 0 lets the dictionary grow to the config's code-width
// capacity.
func (c *Client) TrainDict(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config, maxEntries int) (*DictInfo, error) {
	body, err := planesBody(ts, cfg)
	if err != nil {
		return nil, err
	}
	q := server.EncodeCompressQuery(cfg, 0)
	if maxEntries > 0 {
		q.Set(server.ParamEntries, strconv.Itoa(maxEntries))
	}
	resp, err := c.do(ctx, http.MethodPut, server.PathDict, q, server.MediaPlanes, "", body)
	if err != nil {
		return nil, err
	}
	return decodeDictInfo(resp)
}

// FetchDict downloads one stored dictionary's canonical LZWD blob.
func (c *Client) FetchDict(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, server.PathDictKey+key, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	return c.readBounded(resp.Body)
}

// PushDict uploads a locally produced LZWD blob under its store key.
// The service validates, re-encodes canonically, and persists it; the
// response carries the canonical digest.
func (c *Client) PushDict(ctx context.Context, key string, blob []byte) (*DictInfo, error) {
	resp, err := c.do(ctx, http.MethodPut, server.PathDictKey+key, nil, "application/octet-stream", "", blob)
	if err != nil {
		return nil, err
	}
	return decodeDictInfo(resp)
}

// DeleteDict evicts one stored dictionary from the service's memory
// tier and disk index. Unknown keys surface as an *APIError with code
// dict_not_found.
func (c *Client) DeleteDict(ctx context.Context, key string) error {
	resp, err := c.do(ctx, http.MethodDelete, server.PathDictKey+key, nil, "", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// decodeDictInfo drains a 2xx response into a dictionary identity.
func decodeDictInfo(resp *http.Response) (*DictInfo, error) {
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	var info DictInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("lzwtcd: decoding dictionary response: %w", err)
	}
	return &info, nil
}
