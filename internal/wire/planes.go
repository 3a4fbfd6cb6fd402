package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"lzwtc/internal/bitvec"
)

// A planes message carries a test set between client and service in
// the cubes' own memory layout instead of cube text:
//
//	header  as in a code container: the Config and pattern width
//	frame   'P' | uvarint patterns | cubes in plane form | CRC32C
//	...
//	eos     'E' | uvarint frameCount, totalPatterns | CRC32C
//
// A cube in plane form is its ⌈W/64⌉ value words, then its ⌈W/64⌉ care
// words, little-endian (bitvec.PlaneBytes). A frame holds as many whole
// cubes as fit in planeBlockBytes, or exactly one cube when a single
// cube is wider than that, so writer and reader each move a frame
// through one pooled block. Every frame is checked before its cubes are
// stored, and cube storage grows only as frames arrive, so memory
// tracks the bytes actually read.

// planeBlockBytes bounds the cube words in one 'P' frame.
const planeBlockBytes = 64 << 10

// planeBlockSlack leaves room in a pooled block for the regions around
// one frame's words: the header before the first frame, the frame's
// marker, count and CRC, and the EOS frame after the last.
const planeBlockSlack = maxHeaderBytes + 1 + binary.MaxVarintLen64 + 4 + maxEOSBytes

// planeBlocks recycles the blocks planes messages are written and read
// through.
var planeBlocks = sync.Pool{New: func() any {
	b := make([]byte, 0, planeBlockBytes+planeBlockSlack)
	return &b
}}

// framePatterns is how many cubes of the given width one frame holds.
func framePatterns(width int) int {
	pb := bitvec.PlaneBytes(width)
	if pb == 0 {
		return 1 // an invalid width, rejected before any frame is written
	}
	return max(1, planeBlockBytes/pb)
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// headerSize is the encoded length of the header region.
func headerSize(hdr Header) int {
	var tmp [maxHeaderBytes]byte
	return len(appendHeader(tmp[:0], hdr))
}

// eosSize is the encoded length of the EOS region.
func eosSize(frames, patterns int) int {
	return 1 + uvarintLen(uint64(frames)) + uvarintLen(uint64(patterns)) + 4
}

// PlanesSize returns the exact byte length of the planes message
// WritePlanes produces for patterns cubes under hdr.
func PlanesSize(hdr Header, patterns int) int {
	size := headerSize(hdr)
	per, pb := framePatterns(hdr.Width), bitvec.PlaneBytes(hdr.Width)
	frames := 0
	for left := patterns; left > 0; left -= per {
		n := min(left, per)
		size += 1 + uvarintLen(uint64(n)) + n*pb + 4
		frames++
	}
	return size + eosSize(frames, patterns)
}

// WritePlanes streams cs to w as a planes message under hdr, through a
// pooled block: w gets at most one Write per frame, and a cube wider
// than a block in block-sized Writes.
func WritePlanes(w io.Writer, hdr Header, cs *bitvec.CubeSet) error {
	blk := planeBlocks.Get().(*[]byte)
	defer planeBlocks.Put(blk)
	e := planesEncoder{w: w, buf: (*blk)[:0]}
	return e.message(hdr, cs)
}

// planesEncoder builds a planes message in a pooled block, handing the
// block to w and starting over whenever the next piece would not fit.
type planesEncoder struct {
	w       io.Writer
	buf     []byte
	crc     uint32 // CRC of the open region's bytes before crcFrom
	crcFrom int    // offset in buf of the open region's unsummed bytes
}

// room makes n bytes free at the end of buf; n never exceeds the
// block's capacity.
func (e *planesEncoder) room(n int) error {
	if cap(e.buf)-len(e.buf) >= n {
		return nil
	}
	return e.flush()
}

// flush writes out buf and empties it, first folding the open region's
// bytes into its CRC.
func (e *planesEncoder) flush() error {
	e.crc = crc32.Update(e.crc, crcTable, e.buf[e.crcFrom:])
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	e.buf, e.crcFrom = e.buf[:0], 0
	return nil
}

// message encodes the whole message: header, frames, EOS.
func (e *planesEncoder) message(hdr Header, cs *bitvec.CubeSet) error {
	if err := checkPlanes(hdr, cs); err != nil {
		return err
	}
	if err := e.room(headerSize(hdr)); err != nil {
		return err
	}
	e.buf = appendHeader(e.buf, hdr)
	per, frames := framePatterns(hdr.Width), 0
	for i := 0; i < len(cs.Cubes); i += per {
		if err := e.frame(cs.Cubes[i:min(len(cs.Cubes), i+per)]); err != nil {
			return err
		}
		frames++
	}
	if err := e.room(eosSize(frames, len(cs.Cubes))); err != nil {
		return err
	}
	e.buf = appendEOS(e.buf, frames, len(cs.Cubes))
	return e.flush()
}

// frame encodes one 'P' frame of cubes. A frame that fits a block is
// never split across flushes; the words of a wider cube stream through
// the block.
func (e *planesEncoder) frame(cubes []*bitvec.Vector) error {
	need := 1 + uvarintLen(uint64(len(cubes))) + 4
	if words := len(cubes) * bitvec.PlaneBytes(cubes[0].Len()); words <= planeBlockBytes {
		need += words
	}
	if err := e.room(need); err != nil {
		return err
	}
	e.crc, e.crcFrom = 0, len(e.buf)
	e.buf = appendUvarint(append(e.buf, framePlanes), uint64(len(cubes)))
	for _, c := range cubes {
		words := bitvec.PlaneBytes(c.Len()) / 8
		for from := 0; from < words; {
			if err := e.room(8); err != nil {
				return err
			}
			n := c.PutPlaneWords(e.buf[len(e.buf):cap(e.buf)], from)
			e.buf, from = e.buf[:len(e.buf)+8*n], from+n
		}
	}
	e.crc = crc32.Update(e.crc, crcTable, e.buf[e.crcFrom:])
	e.crcFrom = len(e.buf)
	if err := e.room(4); err != nil {
		return err
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, e.crc)
	return nil
}

// checkPlanes validates a set against the header it is sent under.
func checkPlanes(hdr Header, cs *bitvec.CubeSet) error {
	if err := hdr.Cfg.Validate(); err != nil {
		return err
	}
	if hdr.Width <= 0 || hdr.Width > MaxWidth {
		return fmt.Errorf("wire: pattern width %d out of range [1,%d]", hdr.Width, MaxWidth)
	}
	if cs.Width != hdr.Width {
		return fmt.Errorf("wire: set width %d differs from header width %d", cs.Width, hdr.Width)
	}
	for i, c := range cs.Cubes {
		if c.Len() != hdr.Width {
			return fmt.Errorf("wire: cube %d has width %d, want %d", i, c.Len(), hdr.Width)
		}
	}
	if per := framePatterns(hdr.Width); (len(cs.Cubes)+per-1)/per > MaxFrames {
		return fmt.Errorf("wire: %d cubes need more than %d frames", len(cs.Cubes), MaxFrames)
	}
	return nil
}

// ReadPlanes reads a whole planes message: the header, every 'P' frame
// and the EOS frame, which must end the stream. Every failure is a
// typed error: the header's own, ErrFrameType for a code frame ('F' or
// 'D') or unknown marker, ErrLimit for a frame over the limits,
// ErrChecksum, ErrTruncated, ErrPlanes for cube bits that break the
// test-set invariants, and ErrTrailing for bytes after EOS.
func ReadPlanes(r io.Reader) (Header, *bitvec.CubeSet, error) {
	wr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	cs, err := wr.readPlanes()
	if err != nil {
		return Header{}, nil, err
	}
	return wr.hdr, cs, nil
}

// readPlanes reads the frames of a planes message after its header.
func (r *Reader) readPlanes() (*bitvec.CubeSet, error) {
	blk := planeBlocks.Get().(*[]byte)
	defer planeBlocks.Put(blk)
	ld := bitvec.NewPlaneLoader(r.hdr.Width)
	for {
		marker, err := r.r.ReadByte()
		if err != nil {
			return nil, truncErr(err, "stream ended before EOS frame")
		}
		switch marker {
		case framePlanes:
			if err := r.readPlanesFrame(ld, (*blk)[:cap(*blk)]); err != nil {
				return nil, err
			}
		case frameEOS:
			if err := r.readEOSFrame([]byte{marker}); err != io.EOF {
				return nil, err
			}
			if _, err := r.r.ReadByte(); err != io.EOF {
				if err == nil {
					return nil, fmt.Errorf("%w after the EOS frame", ErrTrailing)
				}
				return nil, err
			}
			return ld.Set(), nil
		case frameData, frameDict:
			return nil, fmt.Errorf("%w: code frame %q at frame %d of a planes message", ErrFrameType, marker, r.frames)
		default:
			return nil, fmt.Errorf("%w: 0x%02x at frame %d", ErrFrameType, marker, r.frames)
		}
	}
}

// readPlanesFrame reads one 'P' frame after its marker into blk (or,
// for one cube wider than blk, a buffer grown as its bytes arrive),
// verifies the CRC, then loads its cubes.
func (r *Reader) readPlanesFrame(ld *bitvec.PlaneLoader, blk []byte) error {
	if r.frames+1 > MaxFrames {
		return fmt.Errorf("%w: more than %d frames", ErrLimit, MaxFrames)
	}
	count, consumed, err := readUvarint(r.r)
	if err != nil {
		return truncErr(err, fmt.Sprintf("planes frame %d pattern count", r.frames))
	}
	pb := bitvec.PlaneBytes(r.hdr.Width)
	if count == 0 || count > MaxFramePatterns || count > 1 && count > uint64(planeBlockBytes/pb) {
		return fmt.Errorf("%w: planes frame %d pattern count %d (width %d)", ErrLimit, r.frames, count, r.hdr.Width)
	}
	n := int(count) * pb
	crc := crc32.Update(crc32.Update(0, crcTable, []byte{framePlanes}), crcTable, consumed)
	payload := blk[:min(n, len(blk))]
	if n <= len(blk) {
		if _, err := io.ReadFull(r.r, payload); err != nil {
			return truncErr(err, fmt.Sprintf("planes frame %d payload", r.frames))
		}
	} else {
		var wide bytes.Buffer
		if _, err := io.CopyN(&wide, r.r, int64(n)); err != nil {
			return truncErr(err, fmt.Sprintf("planes frame %d payload", r.frames))
		}
		payload = wide.Bytes()
	}
	if err := checkCRC(r.r, crc32.Update(crc, crcTable, payload), fmt.Sprintf("planes frame %d", r.frames)); err != nil {
		return err
	}
	if err := ld.Load(payload); err != nil {
		return fmt.Errorf("%w: frame %d: %v", ErrPlanes, r.frames, err)
	}
	r.frames++
	r.patterns += int(count)
	return nil
}
