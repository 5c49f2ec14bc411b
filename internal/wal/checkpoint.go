package wal

// Checkpoint files: ckpt-%016x.ckpt in a directory, where the hex field
// is the journal sequence number the checkpoint covers (every record
// with Seq <= it is reflected in the payload). A checkpoint is written
// to a temp file, fsynced, then renamed into place and the directory
// fsynced — so a crash mid-write leaves either the old set of
// checkpoints or the old set plus one complete new file, never a
// half-written one that parses. The payload is opaque to this package
// (internal/serve encodes its composed store state); integrity is a
// trailing CRC-32C over the payload, verified on read.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	ckptMagic  = 0x53504b31 // "SPK1"
)

// ErrNoCheckpoint is returned by LatestCheckpoint when the directory
// holds no readable checkpoint.
var ErrNoCheckpoint = fmt.Errorf("wal: no checkpoint")

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
}

// WriteCheckpoint atomically installs a checkpoint covering journal
// sequence seq with the given payload.
func WriteCheckpoint(dir string, seq uint64, payload []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, crcTable))
	return WriteFileAtomic(dir, ckptName(seq), hdr[:], payload)
}

// WriteFileAtomic installs dir/name holding the concatenation of parts:
// it writes a temp file in dir, fsyncs it, renames it over name and
// fsyncs dir, so after a crash name holds either its old content or the
// new content in full, and a completed call survives power loss. dir is
// created if missing; the temp file is removed on any failure.
func WriteFileAtomic(dir, name string, parts ...[]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadCheckpoint loads and verifies the checkpoint covering seq,
// returning its payload.
func ReadCheckpoint(dir string, seq uint64) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptName(seq)))
	if err != nil {
		return nil, err
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("wal: checkpoint %d truncated at %d bytes", seq, len(data))
	}
	if binary.LittleEndian.Uint32(data) != ckptMagic {
		return nil, fmt.Errorf("wal: checkpoint %d has bad magic", seq)
	}
	if got := binary.LittleEndian.Uint64(data[4:]); got != seq {
		return nil, fmt.Errorf("wal: checkpoint file for seq %d declares seq %d", seq, got)
	}
	payload := data[16:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[12:]) {
		return nil, fmt.Errorf("wal: checkpoint %d fails CRC", seq)
	}
	return payload, nil
}

// Checkpoints lists the checkpoint sequence numbers present in dir,
// ascending. Files that do not match the naming scheme (including
// leftover temp files) are ignored.
func Checkpoints(dir string) ([]uint64, error) {
	files, err := scanSeqFiles(dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, len(files))
	for i, f := range files {
		seqs[i] = f.first
	}
	return seqs, nil
}

// LatestCheckpoint loads the newest checkpoint that verifies, falling
// back to older ones when the newest is unreadable (a crash can race the
// retention pass, never the install — but a damaged disk can). Returns
// ErrNoCheckpoint when none exists; a corruption error when checkpoints
// exist but none verifies.
func LatestCheckpoint(dir string) (seq uint64, payload []byte, err error) {
	seqs, err := Checkpoints(dir)
	if err != nil {
		return 0, nil, err
	}
	if len(seqs) == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		payload, err := ReadCheckpoint(dir, seqs[i])
		if err == nil {
			return seqs[i], payload, nil
		}
		lastErr = err
	}
	return 0, nil, fmt.Errorf("wal: no checkpoint verifies: %w", lastErr)
}

// PruneCheckpoints deletes all but the newest keep checkpoints and
// returns the sequence number of the oldest retained one — the bound the
// journal may be truncated below. Retaining more than one checkpoint
// keeps recovery possible even if the newest file is lost.
func PruneCheckpoints(dir string, keep int) (oldestKept uint64, err error) {
	if keep < 1 {
		keep = 1
	}
	seqs, err := Checkpoints(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		return 0, ErrNoCheckpoint
	}
	cut := 0
	if len(seqs) > keep {
		cut = len(seqs) - keep
	}
	for _, seq := range seqs[:cut] {
		if err := os.Remove(filepath.Join(dir, ckptName(seq))); err != nil {
			return 0, err
		}
	}
	if cut > 0 {
		if err := syncDir(dir); err != nil {
			return 0, err
		}
	}
	return seqs[cut], nil
}
