package replica

// Epoch persistence: a tiny fenced-leadership record in the data dir. A
// bootstrap leader starts at epoch 1; /promote seals the follower's
// applied journal position into epoch+1 and persists it BEFORE the node
// starts accepting writes, so a restart of a promoted node keeps fencing
// the deposed leader's stream. The file is one fixed-size record
// installed with wal.WriteFileAtomic (tmp + fsync + rename + directory
// fsync), so a sealed epoch survives power loss.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

const (
	epochFile  = "epoch"
	epochMagic = 0x53505245 // "SPRE"
	epochSize  = 4 + 8 + 8 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Epoch is the persisted leadership record.
type Epoch struct {
	// Epoch is the fencing token carried on every stream frame.
	Epoch uint64
	// SealedSeq is the journal sequence the previous epoch was sealed at
	// (the promoted follower's applied position; 0 for a bootstrap
	// leader).
	SealedSeq uint64
}

// SaveEpoch atomically persists e into dir.
func SaveEpoch(dir string, e Epoch) error {
	var buf [epochSize]byte
	binary.LittleEndian.PutUint32(buf[0:], epochMagic)
	binary.LittleEndian.PutUint64(buf[4:], e.Epoch)
	binary.LittleEndian.PutUint64(buf[12:], e.SealedSeq)
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(buf[:20], crcTable))
	return wal.WriteFileAtomic(dir, epochFile, buf[:])
}

// LoadEpoch reads the epoch record from dir. ok=false (with a nil error)
// means no record exists — a fresh data dir.
func LoadEpoch(dir string) (e Epoch, ok bool, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return Epoch{}, false, nil
	}
	if err != nil {
		return Epoch{}, false, err
	}
	if len(buf) != epochSize {
		return Epoch{}, false, fmt.Errorf("replica: epoch file of %d bytes", len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != epochMagic {
		return Epoch{}, false, errors.New("replica: epoch file bad magic")
	}
	if crc32.Checksum(buf[:20], crcTable) != binary.LittleEndian.Uint32(buf[20:]) {
		return Epoch{}, false, errors.New("replica: epoch file fails CRC")
	}
	return Epoch{
		Epoch:     binary.LittleEndian.Uint64(buf[4:]),
		SealedSeq: binary.LittleEndian.Uint64(buf[12:]),
	}, true, nil
}

// LoadOrInitEpoch returns dir's epoch record, persisting epoch 1 first if
// none exists — the bootstrap-leader path.
func LoadOrInitEpoch(dir string) (Epoch, error) {
	e, ok, err := LoadEpoch(dir)
	if err != nil {
		return Epoch{}, err
	}
	if ok {
		return e, nil
	}
	e = Epoch{Epoch: 1}
	if err := SaveEpoch(dir, e); err != nil {
		return Epoch{}, err
	}
	return e, nil
}
