// Package replica is the replicated serving plane: a leader streams its
// group-framed WAL journal over HTTP to followers that bootstrap from the
// leader's latest checkpoint and then replay the tail forever — recovery
// that never stops. A follower is a durable serve.Store over its own data
// directory, flipped read-only; it serves ~50ns lookups from its own
// atomically-swapped snapshots with a bounded staleness watermark, and
// promotion (with epoch fencing against the deposed leader) flips it to a
// full read-write coordinator.
//
// The wire protocol carries the journal's on-disk frames verbatim inside
// stream frames (internal/frame defines the framing and its CRC) whose
// payload is
//
//	u64 epoch | u64 leaderSeq | [records: raw WAL frames]
//
// kinds: handshake (1, opens every stream), records (2, one or more
// journal frames in sequence order), heartbeat (3, keeps the staleness
// watermark honest across idle periods). Every frame carries the leader's
// epoch, so fencing is per-frame, not just per-connection: after a
// follower promotes, any frame still in flight from the deposed leader
// fails the epoch check and is dropped with the connection.
package replica

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
)

// Stream frame kinds.
const (
	// FrameHandshake opens a stream: epoch + the leader's current journal
	// sequence, sent before any records.
	FrameHandshake byte = 1
	// FrameRecords carries raw journal frames (wal.ReadFramesAfter
	// format) in sequence order.
	FrameRecords byte = 2
	// FrameHeartbeat refreshes leaderSeq during idle periods.
	FrameHeartbeat byte = 3
)

const frameFixed = 16 // u64 epoch + u64 leaderSeq

// Frame is one decoded replication stream frame.
type Frame struct {
	Kind      byte
	Epoch     uint64
	LeaderSeq uint64 // leader's last journaled sequence at send time
	Records   []byte // FrameRecords only: concatenated raw journal frames
}

// checkStream is the replication stream's frame.Rule: records frames
// carry at least one byte past the fixed fields, control frames exactly
// the fixed fields.
func checkStream(kind byte, n int) error {
	switch {
	case kind < FrameHandshake || kind > FrameHeartbeat:
		return fmt.Errorf("replica: unknown frame kind %d", kind)
	case kind == FrameRecords && n <= frameFixed:
		return fmt.Errorf("replica: %d-byte payload on records frame", n)
	case kind != FrameRecords && n != frameFixed:
		return fmt.Errorf("replica: %d-byte payload on control frame kind %d", n, kind)
	}
	return nil
}

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var fixed [frameFixed]byte
	binary.LittleEndian.PutUint64(fixed[:], f.Epoch)
	binary.LittleEndian.PutUint64(fixed[8:], f.LeaderSeq)
	return frame.Append(dst, f.Kind, fixed[:], f.Records)
}

// DecodeFrame parses one frame from the front of b, returning it and the
// number of bytes consumed. frame.ErrShort means b ends mid-frame (a
// torn read — wait for more bytes); any other error means the bytes can
// never parse and the stream must be abandoned. Records aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	kind, payload, n, err := frame.Decode(b, checkStream)
	if err != nil {
		return Frame{}, 0, err
	}
	return parseFrame(kind, payload), n, nil
}

// parseFrame splits a payload that passed checkStream into its fields.
func parseFrame(kind byte, payload []byte) Frame {
	f := Frame{
		Kind:      kind,
		Epoch:     binary.LittleEndian.Uint64(payload),
		LeaderSeq: binary.LittleEndian.Uint64(payload[8:]),
	}
	if kind == FrameRecords {
		f.Records = payload[frameFixed:]
	}
	return f
}
