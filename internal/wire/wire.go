// Package wire is the versioned on-the-wire representation of a
// compressed test stream: the format the ATE channel, the batch output
// files and the lzwtcd network service all speak.
//
// The paper's decompressor consumes a stream of fixed-width C_E-bit
// codes whose meaning depends entirely on the configurator parameters
// (C_C, N, C_MDATA, the fill/tie/reset policies): the same bits
// decompress to different scan data under a different Config, silently.
// A durable representation therefore pins the configuration next to the
// payload and makes every region tamper-evident:
//
//	header  magic "LZWW" | version u8 | uvarint config+geometry | CRC32C
//	dict    'D' | store key (32B) | blob digest (32B) | CRC32C   (optional, at most one)
//	frame   'F' | uvarint patterns, inputBits, nCodes | packed codes | CRC32C
//	...     (one frame per independently decompressible shard)
//	eos     'E' | uvarint frameCount, totalPatterns | CRC32C
//
// The same header and EOS frame also wrap a test set in plane form, the
// planes message of planes.go: 'P' frames of whole cubes in place of the
// 'F' frames, and no 'D' frame. The two kinds never mix: a Reader
// rejects a 'P' frame and ReadPlanes rejects 'F' and 'D' frames, so a
// test set can never be decompressed and a code container never read
// as a test set.
//
// The optional dictionary-reference frame names a shared preloaded
// dictionary by content address: the SHA-256 store key identifies which
// dictionary to fetch, and the blob digest (SHA-256 of the canonical
// LZWD encoding) lets the resolver prove it fetched the exact
// dictionary the compressor used. When a 'D' frame is present, every
// data frame was compressed with that preload installed, and a frame
// boundary reinstalls it (FullReset configs therefore cannot carry a
// dictionary reference).
//
// All multi-byte CRCs are big-endian CRC32C (Castagnoli). Every frame
// is independently decompressible — a frame boundary is semantically a
// dictionary FullReset, exactly the shard boundary of the parallel
// engine — so a Reader can stream frames without buffering the file.
// The explicit EOS frame carries the frame and pattern totals, so
// truncation at any byte is always detectable: either a CRC fails, a
// read hits EOF mid-region (ErrTruncated), or the stream ends before
// the EOS frame (ErrTruncated).
//
// Decoding is hostile-input safe: arbitrary bytes produce a typed error
// (ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, or a config
// validation error), never a panic, and allocation is bounded by the
// bytes actually read, not by attacker-controlled length fields.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lzwtc/internal/core"
)

// Magic is the 4-byte container signature.
var Magic = [4]byte{'L', 'Z', 'W', 'W'}

// Version is the current format version. Readers reject anything newer.
const Version = 1

// Typed decode errors. Wrapped errors carry position detail; test with
// errors.Is. A truncation also wraps its cause: io.ErrUnexpectedEOF when
// the stream ended, or the reader's own error (a body limit, a broken
// connection).
var (
	// ErrBadMagic reports a stream that is not a wire container at all.
	ErrBadMagic = errors.New("wire: bad magic (not an LZWW container)")
	// ErrVersion reports a container from a newer (or zero) format version.
	ErrVersion = errors.New("wire: unsupported format version")
	// ErrChecksum reports a CRC32C mismatch in a header or frame.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrTruncated reports a stream that ended mid-region or before the
	// EOS frame.
	ErrTruncated = errors.New("wire: truncated stream")
	// ErrFrameType reports an unknown frame marker byte.
	ErrFrameType = errors.New("wire: unknown frame type")
	// ErrLimit reports a length field exceeding the format's hard bounds.
	ErrLimit = errors.New("wire: length field exceeds format limit")
	// ErrClosed reports a write to a closed Writer.
	ErrClosed = errors.New("wire: writer closed")
	// ErrDictFrame reports a misplaced or repeated dictionary-reference
	// frame, or one on a FullReset container (a frame boundary resets
	// the dictionary, so a preload reference is meaningless there).
	ErrDictFrame = errors.New("wire: invalid dictionary reference frame")
	// ErrPlanes reports cube planes that break the test-set invariants:
	// a value bit set on a don't-care, or a bit at or beyond the width.
	ErrPlanes = errors.New("wire: invalid cube planes")
	// ErrTrailing reports bytes after the EOS frame of a planes message.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// Frame marker bytes.
const (
	frameData   = 'F'
	frameEOS    = 'E'
	frameDict   = 'D'
	framePlanes = 'P'
)

// DictRefLen is the byte length of each content address in a
// dictionary-reference frame (SHA-256).
const DictRefLen = 32

// DictRef names a shared preloaded dictionary by content address: Key
// locates it in a dictionary store, Digest (SHA-256 of the canonical
// LZWD blob) proves the resolved dictionary is the one the compressor
// used.
type DictRef struct {
	Key    [DictRefLen]byte
	Digest [DictRefLen]byte
}

// encodeDictRef renders the dictionary-reference region.
func encodeDictRef(ref DictRef) []byte {
	b := make([]byte, 0, 1+2*DictRefLen+4)
	b = append(b, frameDict)
	b = append(b, ref.Key[:]...)
	b = append(b, ref.Digest[:]...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// Format hard bounds: length fields beyond these are rejected before
// any allocation happens. They comfortably exceed every real workload
// (the paper's largest set is ~200k bits) while keeping a hostile
// header from requesting gigabytes.
const (
	// MaxWidth bounds the pattern width carried in the header.
	MaxWidth = 1 << 24
	// MaxFramePatterns bounds one frame's pattern count.
	MaxFramePatterns = 1 << 24
	// MaxFrameCodes bounds one frame's code count.
	MaxFrameCodes = 1 << 26
	// MaxFrameInputBits bounds one frame's unpadded input length.
	MaxFrameInputBits = 1 << 30
	// MaxFrames bounds the container's frame count.
	MaxFrames = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the container preamble: the full configurator state plus
// the original pattern width, everything a decompressor needs with no
// out-of-band knowledge.
type Header struct {
	Cfg   core.Config
	Width int
}

// Frame is one independently decompressible code block: a run of whole
// patterns compressed with a fresh dictionary (a frame boundary is a
// FullReset). Patterns and InputBits carry the original geometry so
// ratios and the decompressor's stop condition need no side channel.
type Frame struct {
	Patterns  int
	InputBits int
	Codes     []core.Code
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// EncodeHeader renders the header region: magic, version, uvarint
// config + width, CRC32C over all of it.
func EncodeHeader(h Header) []byte {
	return appendHeader(make([]byte, 0, 32), h)
}

// maxHeaderBytes bounds the header region: magic, version, seven
// uvarints and the CRC.
const maxHeaderBytes = 4 + 1 + 7*binary.MaxVarintLen64 + 4

// appendHeader appends the header region to b.
func appendHeader(b []byte, h Header) []byte {
	start := len(b)
	b = append(b, Magic[:]...)
	b = append(b, Version)
	b = appendUvarint(b, uint64(h.Cfg.CharBits))
	b = appendUvarint(b, uint64(h.Cfg.DictSize))
	b = appendUvarint(b, uint64(h.Cfg.EntryBits))
	b = appendUvarint(b, uint64(h.Cfg.Fill))
	b = appendUvarint(b, uint64(h.Cfg.Tie))
	b = appendUvarint(b, uint64(h.Cfg.Full))
	b = appendUvarint(b, uint64(h.Width))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// encodeFrame renders one data frame region.
func encodeFrame(f *Frame, cb int) []byte {
	payload := packCodes(f.Codes, cb)
	b := make([]byte, 0, len(payload)+24)
	b = append(b, frameData)
	b = appendUvarint(b, uint64(f.Patterns))
	b = appendUvarint(b, uint64(f.InputBits))
	b = appendUvarint(b, uint64(len(f.Codes)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// encodeEOS renders the end-of-stream frame.
func encodeEOS(frames, patterns int) []byte {
	return appendEOS(make([]byte, 0, 16), frames, patterns)
}

// maxEOSBytes bounds the EOS region: marker, two uvarints and the CRC.
const maxEOSBytes = 1 + 2*binary.MaxVarintLen64 + 4

// appendEOS appends the end-of-stream frame to b.
func appendEOS(b []byte, frames, patterns int) []byte {
	start := len(b)
	b = append(b, frameEOS)
	b = appendUvarint(b, uint64(frames))
	b = appendUvarint(b, uint64(patterns))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// maxCodeBits is the widest code the format carries: core.Config.Validate
// caps DictSize at 2^24, so CodeBits never exceeds 24. The 64-bit
// accumulators of packCodes and unpackCodes hold at most cb+7 bits and
// so stay exact for every width up to this bound.
const maxCodeBits = 24

// packCodes packs fixed-width cb-bit codes MSB-first — the same bit
// order core.Result.Pack emits for the ATE channel. Codes shift into a
// 64-bit accumulator that drains whole bytes, high bits first.
func packCodes(codes []core.Code, cb int) []byte {
	out := make([]byte, 0, (len(codes)*cb+7)/8)
	mask := uint64(1)<<uint(cb) - 1
	var acc uint64
	n := uint(0) // bits pending in acc
	for _, c := range codes {
		acc = acc<<uint(cb) | uint64(c)&mask
		n += uint(cb)
		for n >= 8 {
			n -= 8
			out = append(out, byte(acc>>n))
		}
	}
	if n > 0 {
		out = append(out, byte(acc<<(8-n)))
	}
	return out
}

// unpackCodes inverts packCodes; data must hold at least n cb-bit codes
// (plus zero padding to the byte boundary). n and cb arrive from the
// decoded stream, so the bounds are re-checked here — the function must
// stay safe even if a future caller forgets the frame-level limits: a
// hostile count or width must produce a typed error, never a giant
// allocation, an index panic or a code wider than the format allows.
func unpackCodes(data []byte, n, cb int) ([]core.Code, error) {
	if n < 0 || n > MaxFrameCodes {
		return nil, fmt.Errorf("%w: code count %d", ErrLimit, n)
	}
	if cb <= 0 || cb > maxCodeBits {
		return nil, fmt.Errorf("%w: code width %d", ErrLimit, cb)
	}
	if (n*cb+7)/8 > len(data) {
		return nil, fmt.Errorf("%w: %d %d-bit codes need %d bytes, have %d",
			ErrTruncated, n, cb, (n*cb+7)/8, len(data))
	}
	codes := make([]core.Code, n)
	mask := uint64(1)<<uint(cb) - 1
	var acc uint64
	have, next := uint(0), 0 // bits pending in acc, next byte of data
	for i := range codes {
		for have < uint(cb) {
			acc = acc<<8 | uint64(data[next])
			next++
			have += 8
		}
		have -= uint(cb)
		codes[i] = core.Code(acc >> have & mask)
	}
	return codes, nil
}

// Writer streams a container to an io.Writer: header up front, one
// region per WriteFrame, EOS on Close. Writer does not buffer beyond
// the frame being encoded, so arbitrarily many frames stream in
// constant memory.
type Writer struct {
	w         io.Writer
	hdr       Header
	cb        int
	frames    int
	patterns  int
	wroteDict bool
	closed    bool
	err       error
}

// NewWriter validates the header and writes it to w.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if err := hdr.Cfg.Validate(); err != nil {
		return nil, err
	}
	if hdr.Width <= 0 || hdr.Width > MaxWidth {
		return nil, fmt.Errorf("wire: pattern width %d out of range [1,%d]", hdr.Width, MaxWidth)
	}
	if _, err := w.Write(EncodeHeader(hdr)); err != nil {
		return nil, err
	}
	return &Writer{w: w, hdr: hdr, cb: hdr.Cfg.CodeBits()}, nil
}

// Header returns the header the Writer was opened with.
func (w *Writer) Header() Header { return w.hdr }

// WriteDictRef writes the dictionary-reference frame. It must precede
// every data frame, may appear at most once, and is rejected on a
// FullReset container (frame boundaries reset the dictionary there, so
// data frames could never see the preload).
func (w *Writer) WriteDictRef(ref DictRef) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if w.wroteDict {
		return fmt.Errorf("%w: already written", ErrDictFrame)
	}
	if w.frames > 0 {
		return fmt.Errorf("%w: must precede data frames", ErrDictFrame)
	}
	if w.hdr.Cfg.Full == core.FullReset {
		return fmt.Errorf("%w: FullReset container cannot reference a dictionary", ErrDictFrame)
	}
	if _, err := w.w.Write(encodeDictRef(ref)); err != nil {
		w.err = err
		return err
	}
	w.wroteDict = true
	return nil
}

// WriteFrame appends one data frame. The frame's codes must fit the
// header's code width (guaranteed when they come from a compression
// under the same Config).
func (w *Writer) WriteFrame(f *Frame) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if f.Patterns <= 0 || f.Patterns > MaxFramePatterns {
		return fmt.Errorf("wire: frame pattern count %d out of range [1,%d]", f.Patterns, MaxFramePatterns)
	}
	if f.InputBits < 0 || f.InputBits > MaxFrameInputBits {
		return fmt.Errorf("wire: frame input bits %d out of range [0,%d]", f.InputBits, MaxFrameInputBits)
	}
	if len(f.Codes) > MaxFrameCodes {
		return fmt.Errorf("wire: frame code count %d exceeds %d", len(f.Codes), MaxFrameCodes)
	}
	if w.frames+1 > MaxFrames {
		return fmt.Errorf("wire: frame count exceeds %d", MaxFrames)
	}
	for i, c := range f.Codes {
		if int(c) >= w.hdr.Cfg.DictSize {
			return fmt.Errorf("wire: frame code %d = %d exceeds dictionary size %d", i, c, w.hdr.Cfg.DictSize)
		}
	}
	if _, err := w.w.Write(encodeFrame(f, w.cb)); err != nil {
		w.err = err
		return err
	}
	w.frames++
	w.patterns += f.Patterns
	return nil
}

// WriteResult appends one compressed stream as a frame, checking that
// it was produced under the Writer's configuration.
func (w *Writer) WriteResult(res *core.Result, patterns int) error {
	if res.Cfg != w.hdr.Cfg {
		return fmt.Errorf("wire: result config %+v differs from container config %+v", res.Cfg, w.hdr.Cfg)
	}
	return w.WriteFrame(&Frame{Patterns: patterns, InputBits: res.InputBits, Codes: res.Codes})
}

// Close writes the EOS frame. Further writes fail with ErrClosed;
// closing twice is a no-op.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if _, err := w.w.Write(encodeEOS(w.frames, w.patterns)); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Reader streams a container from an io.Reader: the header is parsed
// and validated by NewReader, then ReadFrame yields data frames until
// the EOS frame, after which it returns io.EOF. A stream that ends
// before its EOS frame yields ErrTruncated.
type Reader struct {
	r        *bufio.Reader
	hdr      Header
	cb       int
	frames   int
	patterns int
	dictRef  *DictRef
	done     bool
	err      error
}

// NewReader reads and validates the container header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, hdr: hdr, cb: hdr.Cfg.CodeBits()}, nil
}

// PeekHeader parses and validates the header at the front of br without
// consuming it, so a caller can learn the Config and width of a stream
// it then hands on whole. Errors are NewReader's.
func PeekHeader(br *bufio.Reader) (Header, error) {
	p, err := br.Peek(maxHeaderBytes)
	hdr, herr := readHeader(bytes.NewReader(p))
	if herr != nil && err != nil && err != io.EOF {
		// The stream failed before a whole header arrived: report why.
		return Header{}, truncErr(err, "header")
	}
	return hdr, herr
}

// byteReader is what the region parsers read from: a *bufio.Reader on
// a stream, or a *bytes.Reader on peeked bytes.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// readHeader reads and validates the header region.
func readHeader(br byteReader) (Header, error) {
	raw := make([]byte, 0, 32)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Header{}, truncErr(err, "magic")
	}
	if magic != Magic {
		return Header{}, ErrBadMagic
	}
	version, err := br.ReadByte()
	if err != nil {
		return Header{}, truncErr(err, "version")
	}
	raw = append(raw, magic[:]...)
	raw = append(raw, version)
	if version != Version {
		return Header{}, fmt.Errorf("%w: got %d, support <= %d", ErrVersion, version, Version)
	}

	var fields [7]uint64
	for i := range fields {
		v, consumed, err := readUvarint(br)
		if err != nil {
			return Header{}, truncErr(err, fmt.Sprintf("header field %d", i))
		}
		fields[i] = v
		raw = append(raw, consumed...)
	}
	if err := checkCRC(br, crc32.Checksum(raw, crcTable), "header"); err != nil {
		return Header{}, err
	}

	hdr := Header{
		Cfg: core.Config{
			CharBits:  clampInt(fields[0]),
			DictSize:  clampInt(fields[1]),
			EntryBits: clampInt(fields[2]),
			Fill:      core.FillPolicy(fields[3]),
			Tie:       core.TieBreak(fields[4]),
			Full:      core.FullPolicy(fields[5]),
		},
		Width: clampInt(fields[6]),
	}
	if fields[3] > uint64(core.FillRepeat) || fields[4] > uint64(core.TieWidest) || fields[5] > uint64(core.FullReset) {
		return Header{}, fmt.Errorf("wire: unknown policy in header (fill=%d tie=%d full=%d)", fields[3], fields[4], fields[5])
	}
	if err := hdr.Cfg.Validate(); err != nil {
		return Header{}, err
	}
	if hdr.Width <= 0 || hdr.Width > MaxWidth {
		return Header{}, fmt.Errorf("%w: pattern width %d", ErrLimit, hdr.Width)
	}
	return hdr, nil
}

// Header returns the parsed container header.
func (r *Reader) Header() Header { return r.hdr }

// DictRef returns the container's dictionary reference, if any. The
// 'D' frame precedes all data frames, so after the first ReadFrame the
// answer is final.
func (r *Reader) DictRef() (DictRef, bool) {
	if r.dictRef == nil {
		return DictRef{}, false
	}
	return *r.dictRef, true
}

// Frames returns the number of data frames read so far.
func (r *Reader) Frames() int { return r.frames }

// Patterns returns the total patterns across frames read so far.
func (r *Reader) Patterns() int { return r.patterns }

// ReadFrame returns the next data frame, or io.EOF after a valid EOS
// frame. Every other outcome is an error: ErrTruncated when the stream
// ends early, ErrChecksum on corruption, ErrFrameType on an unknown
// marker.
func (r *Reader) ReadFrame() (*Frame, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	f, err := r.readFrame()
	if err != nil && err != io.EOF {
		r.err = err
	}
	return f, err
}

func (r *Reader) readFrame() (*Frame, error) {
	marker, err := r.r.ReadByte()
	if err != nil {
		// EOF between frames still means truncation: a complete
		// container always ends with an EOS frame.
		return nil, truncErr(err, "stream ended before EOS frame")
	}
	raw := []byte{marker}
	switch marker {
	case frameData:
		return r.readDataFrame(raw)
	case frameEOS:
		return nil, r.readEOSFrame(raw)
	case frameDict:
		if err := r.readDictFrame(raw); err != nil {
			return nil, err
		}
		// The dictionary reference is metadata, not a data frame:
		// continue to whatever follows it.
		return r.readFrame()
	case framePlanes:
		return nil, fmt.Errorf("%w: planes frame at frame %d of a code container", ErrFrameType, r.frames)
	default:
		return nil, fmt.Errorf("%w: 0x%02x at frame %d", ErrFrameType, marker, r.frames)
	}
}

// readDictFrame parses and validates the dictionary-reference region.
func (r *Reader) readDictFrame(raw []byte) error {
	if r.dictRef != nil {
		return fmt.Errorf("%w: repeated", ErrDictFrame)
	}
	if r.frames > 0 {
		return fmt.Errorf("%w: after data frame %d", ErrDictFrame, r.frames-1)
	}
	if r.hdr.Cfg.Full == core.FullReset {
		return fmt.Errorf("%w: FullReset container cannot reference a dictionary", ErrDictFrame)
	}
	var body [2 * DictRefLen]byte
	if n, err := io.ReadFull(r.r, body[:]); err != nil {
		return truncErr(err, fmt.Sprintf("dict frame body: got %d of %d bytes", n, len(body)))
	}
	raw = append(raw, body[:]...)
	if err := checkCRC(r.r, crc32.Checksum(raw, crcTable), "dict frame"); err != nil {
		return err
	}
	ref := &DictRef{}
	copy(ref.Key[:], body[:DictRefLen])
	copy(ref.Digest[:], body[DictRefLen:])
	r.dictRef = ref
	return nil
}

func (r *Reader) readDataFrame(raw []byte) (*Frame, error) {
	if r.frames+1 > MaxFrames {
		return nil, fmt.Errorf("%w: more than %d frames", ErrLimit, MaxFrames)
	}
	var fields [3]uint64
	for i := range fields {
		v, consumed, err := readUvarint(r.r)
		if err != nil {
			return nil, truncErr(err, fmt.Sprintf("frame %d field %d", r.frames, i))
		}
		fields[i] = v
		raw = append(raw, consumed...)
	}
	patterns, inputBits, nCodes := fields[0], fields[1], fields[2]
	if patterns == 0 || patterns > MaxFramePatterns {
		return nil, fmt.Errorf("%w: frame %d pattern count %d", ErrLimit, r.frames, patterns)
	}
	if inputBits > MaxFrameInputBits {
		return nil, fmt.Errorf("%w: frame %d input bits %d", ErrLimit, r.frames, inputBits)
	}
	if nCodes > MaxFrameCodes {
		return nil, fmt.Errorf("%w: frame %d code count %d", ErrLimit, r.frames, nCodes)
	}
	payloadLen := (int(nCodes)*r.cb + 7) / 8
	// Read the payload through a bounded-growth buffer: allocation
	// tracks bytes actually present in the stream, so a hostile nCodes
	// with a short body cannot force a giant up-front allocation.
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, r.r, int64(payloadLen)); err != nil {
		return nil, truncErr(err, fmt.Sprintf("frame %d payload: got %d of %d bytes", r.frames, n, payloadLen))
	}
	raw = append(raw, payload.Bytes()...)
	if err := checkCRC(r.r, crc32.Checksum(raw, crcTable), fmt.Sprintf("frame %d", r.frames)); err != nil {
		return nil, err
	}
	codes, err := unpackCodes(payload.Bytes(), int(nCodes), r.cb)
	if err != nil {
		return nil, fmt.Errorf("frame %d: %w", r.frames, err)
	}
	f := &Frame{
		Patterns:  int(patterns),
		InputBits: int(inputBits),
		Codes:     codes,
	}
	for i, c := range f.Codes {
		if int(c) >= r.hdr.Cfg.DictSize {
			return nil, fmt.Errorf("wire: frame %d code %d = %d exceeds dictionary size %d", r.frames, i, c, r.hdr.Cfg.DictSize)
		}
	}
	r.frames++
	r.patterns += f.Patterns
	return f, nil
}

// readEOSFrame validates the EOS totals and returns io.EOF on success.
func (r *Reader) readEOSFrame(raw []byte) error {
	var fields [2]uint64
	for i := range fields {
		v, consumed, err := readUvarint(r.r)
		if err != nil {
			return truncErr(err, fmt.Sprintf("EOS field %d", i))
		}
		fields[i] = v
		raw = append(raw, consumed...)
	}
	if err := checkCRC(r.r, crc32.Checksum(raw, crcTable), "EOS frame"); err != nil {
		return err
	}
	if int(fields[0]) != r.frames || int(fields[1]) != r.patterns {
		return fmt.Errorf("%w: EOS totals %d frames/%d patterns, read %d/%d",
			ErrTruncated, fields[0], fields[1], r.frames, r.patterns)
	}
	r.done = true
	return io.EOF
}

// checkCRC reads the 4-byte big-endian CRC32C that terminates a region
// and verifies it against got, the CRC of the region's bytes read so
// far.
func checkCRC(r io.Reader, got uint32, region string) error {
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return truncErr(err, region+" checksum")
	}
	if want := binary.BigEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w: %s: computed %08x, stored %08x", ErrChecksum, region, got, want)
	}
	return nil
}

// readUvarint reads a uvarint and also returns the exact bytes
// consumed, for CRC accumulation.
func readUvarint(r io.ByteReader) (uint64, []byte, error) {
	var consumed []byte
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		consumed = append(consumed, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, nil, fmt.Errorf("uvarint overflows 64 bits")
			}
			return v | uint64(b)<<shift, consumed, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, nil, fmt.Errorf("uvarint too long")
}

// truncErr reports a read that failed inside a region as ErrTruncated:
// any EOF (or short read) there means the stream ended early. The cause
// stays inspectable: an EOF becomes io.ErrUnexpectedEOF, and any other
// read error (a body limit, a broken connection) is wrapped as is.
func truncErr(err error, region string) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: %w", ErrTruncated, region, err)
}

// clampInt converts a header uvarint to int, saturating instead of
// wrapping on 32-bit overflow so validation sees an out-of-range value
// rather than a negative one.
func clampInt(v uint64) int {
	if v > 1<<31-1 {
		return 1<<31 - 1
	}
	return int(v)
}
