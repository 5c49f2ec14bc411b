package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"repro/internal/frame"
)

// Watch frames captured from the codec before it moved onto
// internal/frame: the wire bytes must decode and re-encode unchanged.
func TestWatchFrameGolden(t *testing.T) {
	delta := EncodeDelta(&Delta{Seq: 7, Epoch: 2, Gen: 1, K: 4, N: 6, Bounds: []int{0, 3, 6},
		Runs: []LabelRun{{Start: 1, Labels: []int32{3, 0}}}, Cross: 5, Total: 9})
	for _, tc := range []struct {
		hex  string
		want WatchFrame
	}{
		{"0110000000e9ee7bbb01000000000000000900000000000000",
			WatchFrame{Kind: WatchHandshake, Floor: 1, Next: 9}},
		{"0262000000d0782f170100070000000000000002000000000000000100000000000000040000000600000005000000000000000900000000000000030000000000000000000000030000000000000006000000000000000100000001000000020000000300000000000000",
			WatchFrame{Kind: WatchDelta, Delta: delta}},
		{"0310000000ae7cae3203000000000000000c00000000000000",
			WatchFrame{Kind: WatchHeartbeat, Floor: 3, Next: 12}},
		{"04100000007ca069ca2a000000000000006300000000000000",
			WatchFrame{Kind: WatchEnd, Floor: 42, Next: 99}},
	} {
		b, _ := hex.DecodeString(tc.hex)
		f, n, err := DecodeWatchFrame(b)
		if err != nil || n != len(b) || f.Kind != tc.want.Kind || f.Floor != tc.want.Floor ||
			f.Next != tc.want.Next || !bytes.Equal(f.Delta, tc.want.Delta) {
			t.Fatalf("%s: decoded %+v (%d bytes, err %v), want %+v", tc.hex, f, n, err, tc.want)
		}
		if re := AppendWatchFrame(nil, tc.want); !bytes.Equal(re, b) {
			t.Fatalf("re-encoded %x, want %s", re, tc.hex)
		}
		// The same bytes through the stream reader.
		rd := NewWatchReader(bytes.NewReader(b))
		if g, err := rd.Next(); err != nil || g.Kind != f.Kind || g.Floor != f.Floor || !bytes.Equal(g.Delta, f.Delta) {
			t.Fatalf("%s: reader got %+v err %v", tc.hex, g, err)
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("%s: reader after the frame: err %v, want io.EOF", tc.hex, err)
		}
	}
}

// A heartbeat header declaring 200 MB, or any header declaring more
// than frame.MaxPayload, is corrupt from its 9 bytes alone.
func TestWatchFrameRejectsOversizedHeader(t *testing.T) {
	for _, h := range []struct {
		kind byte
		n    uint32
	}{{WatchHeartbeat, 200 << 20}, {WatchDelta, frame.MaxPayload + 1}, {WatchDelta, 0}} {
		hdr := []byte{h.kind, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(hdr[1:], h.n)
		if _, _, err := DecodeWatchFrame(hdr); err == nil || errors.Is(err, frame.ErrShort) {
			t.Fatalf("kind %d declaring %d bytes: err %v, want a non-short error", h.kind, h.n, err)
		}
		if _, err := NewWatchReader(bytes.NewReader(hdr)).Next(); err == nil || err == io.ErrUnexpectedEOF {
			t.Fatalf("reader, kind %d declaring %d bytes: err %v, want a corrupt-header error", h.kind, h.n, err)
		}
	}
}
