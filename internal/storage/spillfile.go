package storage

// spillfile.go holds the temp file both spill stores (PartitionStore and
// RunStore) write their cold batches to: created on the first spill,
// appended through WriteAt, read back through ReadAt, and removed on Close.
// Every frame goes through encodeSpillFrame, so the codec is the storage
// layer's own decision — callers pick only a budget and a directory.

import (
	"fmt"
	"os"
	"sync"
)

// spillFilePattern names every spill temp file (os.CreateTemp pattern).
const spillFilePattern = "toreador-spill-*.bin"

// spillRange locates one encoded frame in a spill file.
type spillRange struct {
	off int64
	len int64
}

// spillFile is the append-only temp file of one spill store together with
// its write/restore counters. It is embedded in both stores, so the counter
// accessors and Close below are theirs. Writes are serialised by mu; reads go
// through ReadAt, so concurrent readers never contend on a file cursor.
type spillFile struct {
	mu     sync.Mutex
	dir    string // "" keeps os.TempDir()
	file   *os.File
	size   int64
	closed bool
	buf    []byte // encode buffer, reused across writes

	batches  int64
	bytes    int64
	logical  int64
	restored int64
}

// write encodes b as one frame at the end of the file, creating the file on
// first use, and returns where the frame landed.
func (f *spillFile) write(b *ColumnBatch) (spillRange, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return spillRange{}, fmt.Errorf("storage: spill to closed store")
	}
	if f.file == nil {
		file, err := os.CreateTemp(f.dir, spillFilePattern)
		if err != nil {
			return spillRange{}, fmt.Errorf("storage: create spill file: %w", err)
		}
		f.file = file
	}
	var logical int64
	f.buf, logical = encodeSpillFrame(f.buf[:0], b)
	if _, err := f.file.WriteAt(f.buf, f.size); err != nil {
		return spillRange{}, fmt.Errorf("storage: write spill file: %w", err)
	}
	r := spillRange{off: f.size, len: int64(len(f.buf))}
	f.size += r.len
	f.batches++
	f.bytes += r.len
	f.logical += logical
	return r, nil
}

// read decodes the frame at r under schema. Restored batches are handed to
// the caller without being re-cached: consumers stream them once.
func (f *spillFile) read(schema *Schema, r spillRange) (*ColumnBatch, error) {
	f.mu.Lock()
	file := f.file
	f.mu.Unlock()
	if file == nil {
		return nil, fmt.Errorf("storage: read from released spill file")
	}
	buf := make([]byte, r.len)
	if _, err := file.ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("storage: read spill file: %w", err)
	}
	b, err := DecodeBatch(schema, buf)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.restored++
	f.mu.Unlock()
	return b, nil
}

// SpilledBatches returns the number of frames written to the spill file: one
// per spilled batch of a PartitionStore, one per runFrameRows slice of a
// spilled run of a RunStore.
func (f *spillFile) SpilledBatches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches
}

// SpilledBytes returns the cumulative physical bytes written to the spill
// file: every frame adds its encoded length, and restores never subtract —
// this is write traffic, not occupancy.
func (f *spillFile) SpilledBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// SpilledLogicalBytes returns the cumulative logical bytes spilled: the size
// the same frames occupy under the raw v1 codec. It bounds SpilledBytes from
// above, and the logical/physical ratio is the spill compression ratio.
func (f *spillFile) SpilledLogicalBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logical
}

// FileBytes returns the bytes occupied by the spill file. The file is
// append-only and never truncated, so this is also the store's
// physical-on-disk high-water mark (and equals SpilledBytes for a single
// store; the distinction matters at the run level, where stores come and go).
func (f *spillFile) FileBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// RestoredBatches returns the number of spilled frames decoded back on read.
func (f *spillFile) RestoredBatches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.restored
}

// Close removes the spill file (if one was created). Idempotent: a second
// call is a no-op, never a double remove. The store must not be used for
// appends afterwards — a spill after Close fails instead of recreating the
// file.
func (f *spillFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.file == nil {
		return nil
	}
	name := f.file.Name()
	err := f.file.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	f.file = nil
	return err
}
