package serve

// The /v1/watch wire format: internal/frame defines the framing (kind,
// payload length, CRC-32C) shared with the replication stream; this file
// defines the watch kinds and payloads.
//
// kinds: handshake (1, opens every stream), delta (2, one encoded
// serve.Delta — see EncodeDelta), heartbeat (3, keeps an idle
// consumer's view of the compaction floor honest), end (4, closes a
// stream whose cursor compaction overtook mid-flight — "resync, this
// was not a dropped connection"). Handshake, heartbeat and end payloads
// are u64 floor | u64 next: the server's oldest retained delta sequence
// and the next sequence it will assign, so a consumer can tell "caught
// up" (cursor == next-1) from "falling toward the floor" without a
// second request.
//
// The codec lives in serve so the delta hub can memoize fully framed
// bytes at publish time: framing is deterministic, so one
// AppendWatchFrame per publication serves every watch stream with the
// byte-identical frame.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Watch stream frame kinds.
const (
	// WatchHandshake opens a stream: the current floor and next delta
	// sequence, sent before any deltas.
	WatchHandshake byte = 1
	// WatchDelta carries one encoded delta record (EncodeDelta).
	WatchDelta byte = 2
	// WatchHeartbeat refreshes floor/next during idle periods.
	WatchHeartbeat byte = 3
	// WatchEnd terminates a stream whose cursor was compacted away
	// mid-stream (the consumer fell a full ring behind). It carries the
	// new floor/next; the consumer must resync via /v1/lookup rather
	// than treat the close as a transient network failure.
	WatchEnd byte = 4
)

const watchFixed = 16 // u64 floor + u64 next

// WatchFrame is one decoded /v1/watch stream frame.
type WatchFrame struct {
	Kind  byte
	Floor uint64 // handshake/heartbeat/end: oldest retained delta seq
	Next  uint64 // handshake/heartbeat/end: next delta seq to be assigned
	Delta []byte // WatchDelta only: EncodeDelta payload
}

// checkWatch is the watch stream's frame.Rule: delta frames carry a
// non-empty payload, control frames exactly floor and next.
func checkWatch(kind byte, n int) error {
	switch {
	case kind < WatchHandshake || kind > WatchEnd:
		return fmt.Errorf("serve: unknown watch frame kind %d", kind)
	case kind == WatchDelta && n == 0:
		return errors.New("serve: empty delta frame")
	case kind != WatchDelta && n != watchFixed:
		return fmt.Errorf("serve: %d-byte payload on control frame kind %d", n, kind)
	}
	return nil
}

// AppendWatchFrame encodes f onto dst and returns the extended slice.
func AppendWatchFrame(dst []byte, f WatchFrame) []byte {
	if f.Kind == WatchDelta {
		return frame.Append(dst, f.Kind, f.Delta)
	}
	var fixed [watchFixed]byte
	binary.LittleEndian.PutUint64(fixed[:], f.Floor)
	binary.LittleEndian.PutUint64(fixed[8:], f.Next)
	return frame.Append(dst, f.Kind, fixed[:])
}

// DecodeWatchFrame parses one frame from the front of b, returning it
// and the number of bytes consumed. frame.ErrShort means b ends
// mid-frame (a torn read — wait for more bytes); any other error means
// the bytes can never parse and the stream must be abandoned. Delta
// aliases b.
func DecodeWatchFrame(b []byte) (WatchFrame, int, error) {
	kind, payload, n, err := frame.Decode(b, checkWatch)
	if err != nil {
		return WatchFrame{}, 0, err
	}
	return parseWatchFrame(kind, payload), n, nil
}

// parseWatchFrame splits a payload that passed checkWatch into its
// fields.
func parseWatchFrame(kind byte, payload []byte) WatchFrame {
	if kind == WatchDelta {
		return WatchFrame{Kind: kind, Delta: payload}
	}
	return WatchFrame{
		Kind:  kind,
		Floor: binary.LittleEndian.Uint64(payload),
		Next:  binary.LittleEndian.Uint64(payload[8:]),
	}
}

// WatchReader yields whole /v1/watch frames from a stream.
type WatchReader struct{ r *frame.Reader }

// NewWatchReader returns a WatchReader over a /v1/watch response body.
func NewWatchReader(r io.Reader) *WatchReader {
	return &WatchReader{r: frame.NewReader(r, checkWatch)}
}

// Next blocks for the next frame. Delta aliases the reader's buffer and
// is valid until the next call. Errors follow frame.Reader.Next: io.EOF
// for a stream that ended between frames, io.ErrUnexpectedEOF for one
// that ended mid-frame, and a decode error for corrupt bytes.
func (r *WatchReader) Next() (WatchFrame, error) {
	kind, payload, err := r.r.Next()
	if err != nil {
		return WatchFrame{}, err
	}
	return parseWatchFrame(kind, payload), nil
}
