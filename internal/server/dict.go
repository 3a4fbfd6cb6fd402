package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"lzwtc"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
)

// Shared-dictionary endpoints: PUT /v1/dict trains a dictionary from
// a test set (idempotently — the store's content addressing plus
// singleflight make a repeated training a cache hit), and
// /v1/dict/{key} fetches, uploads or evicts one LZWD blob. The dictid
// query parameter on the compress endpoints resolves through the same
// store, so `dict push` from one client warms every later compression.

// maxDictBlobBytes bounds an uploaded LZWD blob before decoding.
const maxDictBlobBytes = 16 << 20

// parseDictID extracts the optional dictid parameter.
func parseDictID(v url.Values) (dictstore.Key, bool, error) {
	s := v.Get(ParamDictID)
	if s == "" {
		return dictstore.Key{}, false, nil
	}
	key, err := dictstore.ParseKey(s)
	if err != nil {
		return dictstore.Key{}, false, fmt.Errorf("server: parameter %s: %w", ParamDictID, err)
	}
	return key, true, nil
}

// resolveDictParam answers the preload and container reference for a
// request's dictid, writing the error response itself on failure.
func (s *Server) resolveDictParam(ctx context.Context, w http.ResponseWriter, r *http.Request, key dictstore.Key) (*core.Preload, lzwtc.DictRef, bool) {
	ent, err := s.dict.Resolve(ctx, key)
	if err != nil {
		if errors.Is(err, dictstore.ErrNotFound) {
			s.writeError(w, r, http.StatusNotFound, CodeDictNotFound,
				fmt.Sprintf("no stored dictionary %s; train or push it first", key))
		} else {
			s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return nil, lzwtc.DictRef{}, false
	}
	return ent.Pre, lzwtc.DictEntryRef(ent), true
}

// setDictHeaders stamps the dictionary identity onto a response.
func setDictHeaders(w http.ResponseWriter, ent *dictstore.Entry) {
	w.Header().Set(HeaderDictKey, ent.Key.String())
	w.Header().Set(HeaderDictDigest, ent.Digest.String())
}

// handleDictTrain serves PUT /v1/dict: test set in, trained (or
// already-stored) dictionary identity out. The key derivation is the
// same DictKeyFor the CLI uses, so training here and training locally
// agree on the address.
func (s *Server) handleDictTrain(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPut) || !s.checkDraining(w, r) {
		return
	}
	cfg, _, err := ParseCompressQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if cfg.Full == core.FullReset {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest,
			"server: full=reset cannot be used with preloaded dictionaries")
		return
	}
	maxEntries := 0
	if v := r.URL.Query().Get(ParamEntries); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("server: parameter %s=%q must be a non-negative integer", ParamEntries, v))
			return
		}
		maxEntries = n
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	ts, err := s.readTestSet(ctx, w, r, cfg)
	if err != nil {
		s.mapError(w, r, err)
		return
	}

	key := lzwtc.DictKeyFor(ts, cfg)
	ent, src, err := s.dict.GetOrTrain(ctx, key, cfg, func(context.Context) (*core.Preload, error) {
		return lzwtc.Train(ts, cfg, maxEntries)
	})
	if err != nil {
		s.mapError(w, r, err)
		return
	}
	setDictHeaders(w, ent)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, DictResponse{
		Key:       ent.Key.String(),
		Digest:    ent.Digest.String(),
		Entries:   ent.Pre.Entries(),
		BlobBytes: ent.BlobBytes,
		Source:    src.String(),
	})
}

// handleDictKey dispatches the per-dictionary operations:
//
//	GET    /v1/dict/{key}  LZWD blob (canonical encoding)
//	PUT    /v1/dict/{key}  upload a blob (validated + re-encoded)
//	DELETE /v1/dict/{key}  evict from memory and disk
func (s *Server) handleDictKey(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, PathDictKey)
	key, err := dictstore.ParseKey(rest)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("malformed dictionary key %q: %v", rest, err))
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleDictFetch(w, r, key)
	case http.MethodPut:
		s.handleDictUpload(w, r, key)
	case http.MethodDelete:
		s.handleDictDelete(w, r, key)
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("%s requires GET, PUT or DELETE", r.URL.Path))
	}
}

func (s *Server) handleDictFetch(w http.ResponseWriter, r *http.Request, key dictstore.Key) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	blob, ent, err := s.dict.Blob(ctx, key)
	if err != nil {
		if errors.Is(err, dictstore.ErrNotFound) {
			s.writeError(w, r, http.StatusNotFound, CodeDictNotFound,
				fmt.Sprintf("no stored dictionary %s", key))
		} else {
			s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return
	}
	setDictHeaders(w, ent)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	if _, err := w.Write(blob); err != nil {
		return // mid-stream failure; the blob CRCs make truncation evident
	}
}

func (s *Server) handleDictUpload(w http.ResponseWriter, r *http.Request, key dictstore.Key) {
	if !s.checkDraining(w, r) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxDictBlobBytes)
	blob, err := io.ReadAll(body)
	if err != nil {
		s.mapError(w, r, err)
		return
	}
	s.bytesIn.Add(int64(len(blob)))
	ent, err := s.dict.PutBlob(key, blob)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeDictInvalid,
			fmt.Sprintf("rejected dictionary blob: %v", err))
		return
	}
	setDictHeaders(w, ent)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, DictResponse{
		Key:       ent.Key.String(),
		Digest:    ent.Digest.String(),
		Entries:   ent.Pre.Entries(),
		BlobBytes: ent.BlobBytes,
	})
}

func (s *Server) handleDictDelete(w http.ResponseWriter, r *http.Request, key dictstore.Key) {
	removed, err := s.dict.Delete(key)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if !removed {
		s.writeError(w, r, http.StatusNotFound, CodeDictNotFound,
			fmt.Sprintf("no stored dictionary %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]string{"deleted": key.String()})
}
