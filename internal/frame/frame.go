// Package frame owns the CRC frame format of spinnerd's binary streams
// (the /v1/watch change feed and the /v1/replicate journal stream):
//
//	u8 kind | u32 payload len | u32 CRC-32C(payload) | payload
//
// little-endian, with the payload capped at MaxPayload bytes. Each
// stream defines its own kinds and payload layout and hands this package
// a Rule that accepts or refuses a header's (kind, length) pair; a
// malformed header is therefore refused from its HeaderSize bytes alone,
// before any payload is buffered.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HeaderSize is the fixed header length: kind, length and CRC.
	HeaderSize = 9
	// MaxPayload caps the payload length a header may declare.
	MaxPayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrShort reports that a buffer holds only a prefix of a frame: read
// more bytes and retry. Every other decode error is corruption (or a
// version skew) and must drop the connection.
var ErrShort = errors.New("frame: short frame")

// Rule checks a header's kind and declared payload length; a non-nil
// error marks the frame corrupt.
type Rule func(kind byte, n int) error

// Append encodes one frame of the given kind onto dst, its payload the
// concatenation of parts, and returns the extended slice.
func Append(dst []byte, kind byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.Checksum(payload, crcTable))
	return dst
}

// Decode parses one frame from the front of b, returning its kind, its
// payload (aliasing b) and the number of bytes consumed. The header is
// checked against MaxPayload and rule as soon as it is complete, so
// ErrShort is only returned for a header that can still become a valid
// frame.
func Decode(b []byte, rule Rule) (kind byte, payload []byte, n int, err error) {
	if len(b) < HeaderSize {
		return 0, nil, 0, ErrShort
	}
	kind = b[0]
	size := int(binary.LittleEndian.Uint32(b[1:]))
	if size > MaxPayload {
		return 0, nil, 0, fmt.Errorf("frame: payload of %d bytes", size)
	}
	if err := rule(kind, size); err != nil {
		return 0, nil, 0, err
	}
	if len(b) < HeaderSize+size {
		return 0, nil, 0, ErrShort
	}
	payload = b[HeaderSize : HeaderSize+size]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[5:]) {
		return 0, nil, 0, errors.New("frame: payload fails CRC")
	}
	return kind, payload, HeaderSize + size, nil
}

// Reader buffers a stream and yields whole frames from it.
type Reader struct {
	r    io.Reader
	rule Rule
	buf  []byte // buf[off:] holds the bytes not yet returned
	off  int
	err  error // read error held back until the buffered bytes run out
}

// NewReader returns a Reader over r that checks every header with rule.
func NewReader(r io.Reader, rule Rule) *Reader {
	return &Reader{r: r, rule: rule, buf: make([]byte, 0, 4096)}
}

// Next blocks until one whole frame is buffered and returns its kind and
// payload; the payload aliases the Reader's buffer and is valid until
// the next call. A stream that ends between frames returns the read
// error (io.EOF for a clean close); one that ends mid-frame returns
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (kind byte, payload []byte, err error) {
	for {
		b := r.buf[r.off:]
		kind, payload, n, err := Decode(b, r.rule)
		if err == nil {
			r.off += n
			return kind, payload, nil
		}
		if !errors.Is(err, ErrShort) {
			return 0, nil, err
		}
		need := HeaderSize
		if len(b) >= HeaderSize {
			need += int(binary.LittleEndian.Uint32(b[1:]))
		}
		if err := r.fill(need); err != nil {
			return 0, nil, err
		}
	}
}

// fill moves the unread bytes to the front of the buffer and reads from
// the stream until at least one more byte arrives. A full buffer grows
// toward need, at most doubling per call, so a header that declares a
// large payload costs memory only as its bytes actually arrive.
func (r *Reader) fill(need int) error {
	if r.off > 0 {
		r.buf, r.off = r.buf[:copy(r.buf, r.buf[r.off:])], 0
	}
	n := len(r.buf)
	if n == cap(r.buf) {
		grown := make([]byte, n, min(need, 2*n))
		copy(grown, r.buf)
		r.buf = grown
	}
	for r.err == nil {
		m, err := r.r.Read(r.buf[n:cap(r.buf)])
		r.buf, r.err = r.buf[:n+m], err
		if m > 0 {
			return nil
		}
	}
	if r.err == io.EOF && n > 0 {
		return io.ErrUnexpectedEOF
	}
	return r.err
}
