package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"repro/internal/frame"
)

// Stream frames captured from the codec before it moved onto
// internal/frame: the wire bytes must decode and re-encode unchanged.
func TestStreamFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		hex  string
		want Frame
	}{
		{"01100000005a6d042201000000000000000200000000000000",
			Frame{Kind: FrameHandshake, Epoch: 1, LeaderSeq: 2}},
		{"0217000000f3c2435603000000000000000500000000000000deadbeef010203",
			Frame{Kind: FrameRecords, Epoch: 3, LeaderSeq: 5, Records: []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}}},
		{"0310000000307fc85b07000000000000006300000000000000",
			Frame{Kind: FrameHeartbeat, Epoch: 7, LeaderSeq: 99}},
	} {
		b, _ := hex.DecodeString(tc.hex)
		f, n, err := DecodeFrame(b)
		if err != nil || n != len(b) || f.Kind != tc.want.Kind || f.Epoch != tc.want.Epoch ||
			f.LeaderSeq != tc.want.LeaderSeq || !bytes.Equal(f.Records, tc.want.Records) {
			t.Fatalf("%s: decoded %+v (%d bytes, err %v), want %+v", tc.hex, f, n, err, tc.want)
		}
		if re := AppendFrame(nil, tc.want); !bytes.Equal(re, b) {
			t.Fatalf("re-encoded %x, want %s", re, tc.hex)
		}
	}
}

// A heartbeat header declaring 200 MB, or any header declaring more
// than frame.MaxPayload, is corrupt from its 9 bytes alone.
func TestStreamFrameRejectsOversizedHeader(t *testing.T) {
	for _, h := range []struct {
		kind byte
		n    uint32
	}{{FrameHeartbeat, 200 << 20}, {FrameRecords, frame.MaxPayload + 1}, {FrameRecords, frameFixed}} {
		hdr := []byte{h.kind, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(hdr[1:], h.n)
		if _, _, err := DecodeFrame(hdr); err == nil || errors.Is(err, frame.ErrShort) {
			t.Fatalf("kind %d declaring %d bytes: err %v, want a non-short error", h.kind, h.n, err)
		}
		if _, _, err := frame.NewReader(bytes.NewReader(hdr), checkStream).Next(); err == nil || err == io.ErrUnexpectedEOF {
			t.Fatalf("reader, kind %d declaring %d bytes: err %v, want a corrupt-header error", h.kind, h.n, err)
		}
	}
}
