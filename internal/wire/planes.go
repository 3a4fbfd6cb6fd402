package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/slab"
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
// cube is wider than that, so the writer moves a frame through one
// pooled block of planeBlockBytes (in two Writes when its words fill the
// block whole) and the reader reads each frame's words into a slab of
// their own size (readPayload). Every frame is checked before its cubes are
// stored, and cube storage grows only as frames arrive, so memory
// tracks the bytes actually read.

// planeBlockBytes bounds the cube words in one 'P' frame.
const planeBlockBytes = 64 << 10

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
// pooled block of planeBlockBytes: w gets one Write per frame that fits
// the block with its marker, count and CRC, and any other frame in
// block-sized Writes.
func WritePlanes(w io.Writer, hdr Header, cs *bitvec.CubeSet) error {
	blk := slab.Get[byte](planeBlockBytes)
	defer slab.Put(blk)
	e := planesEncoder{w: w, buf: blk[:0]}
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
// never split across flushes; the words of a larger one stream through
// the block.
func (e *planesEncoder) frame(cubes []*bitvec.Vector) error {
	need := 1 + uvarintLen(uint64(len(cubes))) + 4
	if words := len(cubes) * bitvec.PlaneBytes(cubes[0].Len()); need+words <= planeBlockBytes {
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
	if hdr.Width <= 0 || hdr.Width > maxWidth {
		return fmt.Errorf("wire: pattern width %d out of range [1,%d]", hdr.Width, maxWidth)
	}
	if cs.Width != hdr.Width {
		return fmt.Errorf("wire: set width %d differs from header width %d", cs.Width, hdr.Width)
	}
	for i, c := range cs.Cubes {
		if c.Len() != hdr.Width {
			return fmt.Errorf("wire: cube %d has width %d, want %d", i, c.Len(), hdr.Width)
		}
	}
	if per := framePatterns(hdr.Width); (len(cs.Cubes)+per-1)/per > maxFrames {
		return fmt.Errorf("wire: %d cubes need more than %d frames", len(cs.Cubes), maxFrames)
	}
	return nil
}

// ReadPlanes reads a whole planes message: the header, every 'P' frame
// and the EOS frame, which must end the stream. Every failure is a
// typed error: the header's own, ErrFrameType for a code frame ('F' or
// 'D') or unknown marker, ErrLimit for a frame over the limits,
// ErrChecksum, ErrTruncated, errPlanes for cube bits that break the
// test-set invariants, and errTrailing for bytes after EOS.
func ReadPlanes(r io.Reader) (Header, *bitvec.CubeSet, error) {
	br, ok := r.(byteReader)
	if !ok {
		b := GetBufReader(r)
		defer PutBufReader(b)
		br = b
	}
	wr, err := newReader(br)
	if err != nil {
		return Header{}, nil, err
	}
	cs, err := wr.readPlanes()
	if err != nil {
		return Header{}, nil, err
	}
	return wr.hdr, cs, nil
}

// readPlanes reads the frames of a planes message after its header. On
// an error the cubes read so far are released.
func (r *Reader) readPlanes() (*bitvec.CubeSet, error) {
	cs := bitvec.NewCubeSet(r.hdr.Width)
	if err := r.readPlanesInto(cs); err != nil {
		cs.Release()
		return nil, err
	}
	return cs, nil
}

// readPlanesInto loads every 'P' frame into cs and checks the EOS frame
// that must end the stream.
func (r *Reader) readPlanesInto(cs *bitvec.CubeSet) error {
	for {
		marker, err := r.r.ReadByte()
		if err != nil {
			return truncErr(err, "stream ended before EOS frame")
		}
		switch marker {
		case framePlanes:
			if err := r.readPlanesFrame(cs); err != nil {
				return err
			}
		case frameEOS:
			if err := r.readEOSFrame([]byte{marker}); err != io.EOF {
				return err
			}
			if _, err := r.r.ReadByte(); err != io.EOF {
				if err == nil {
					return fmt.Errorf("%w after the EOS frame", errTrailing)
				}
				return err
			}
			return nil
		case frameData, frameDict:
			return fmt.Errorf("%w: code frame %q at frame %d of a planes message", ErrFrameType, marker, r.frames)
		default:
			return fmt.Errorf("%w: 0x%02x at frame %d", ErrFrameType, marker, r.frames)
		}
	}
}

// readPlanesFrame reads one 'P' frame after its marker into a slab,
// verifies the CRC, then loads its cubes.
func (r *Reader) readPlanesFrame(cs *bitvec.CubeSet) error {
	if r.frames+1 > maxFrames {
		return fmt.Errorf("%w: more than %d frames", ErrLimit, maxFrames)
	}
	count, consumed, err := readUvarint(r.r)
	if err != nil {
		return truncErr(err, fmt.Sprintf("planes frame %d pattern count", r.frames))
	}
	pb := bitvec.PlaneBytes(r.hdr.Width)
	if count == 0 || count > maxFramePatterns || count > 1 && count > uint64(planeBlockBytes/pb) {
		return fmt.Errorf("%w: planes frame %d pattern count %d (width %d)", ErrLimit, r.frames, count, r.hdr.Width)
	}
	crc := crc32.Update(crc32.Update(0, crcTable, []byte{framePlanes}), crcTable, consumed)
	// One cube wider than a block is trusted only as far as its bytes
	// arrive: readPayload grows its slab with them.
	payload, err := readPayload(r.r, int(count)*pb)
	defer slab.Put(payload)
	if err != nil {
		return truncErr(err, fmt.Sprintf("planes frame %d payload", r.frames))
	}
	if err := checkCRC(r.r, crc32.Update(crc, crcTable, payload), fmt.Sprintf("planes frame %d", r.frames)); err != nil {
		return err
	}
	if err := bitvec.LoadPlanes(cs, payload); err != nil {
		return fmt.Errorf("%w: frame %d: %v", errPlanes, r.frames, err)
	}
	r.frames++
	r.patterns += int(count)
	return nil
}
