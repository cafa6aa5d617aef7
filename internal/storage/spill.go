package storage

// spill.go implements the spill-to-disk layer under the columnar batch
// representation: a compact binary codec that serialises ColumnBatch typed
// vectors (round-trip exact, including float bit patterns and null bitmaps)
// and a size-bounded PartitionStore that keeps hot batches in memory and
// spills cold ones to a temp file once a configurable byte budget is
// exceeded, restoring them transparently on read. The dataflow engine
// accumulates shuffle buckets, sort inputs and join/group-by build sides into
// a store instead of bare slices, which lets wide operators run over inputs
// larger than the memory budget.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Batch codec framing.
const (
	batchMagic   byte = 0xCB // "column batch"
	batchVersion byte = 1
)

// ErrBadBatchEncoding is returned when DecodeBatch meets bytes that are not a
// valid encoded batch (or one encoded for a different schema).
var ErrBadBatchEncoding = fmt.Errorf("storage: bad batch encoding")

// BatchMemSize estimates the in-memory footprint of a batch in bytes: the
// typed vectors, string payloads, and null bitmap words. It is the unit the
// PartitionStore budgets against.
func BatchMemSize(b *ColumnBatch) int64 {
	if b == nil {
		return 0
	}
	n := int64(b.n)
	var total int64
	for c := range b.cols {
		col := &b.cols[c]
		switch col.typ {
		case TypeInt, TypeTime, TypeFloat:
			total += 8 * n
		case TypeBool:
			total += n
		case TypeString:
			// Slice header per string plus payload bytes.
			total += 16 * n
			for i := 0; i < b.n; i++ {
				total += int64(len(col.strs[i]))
			}
		}
		total += 8 * int64(len(col.nulls))
	}
	return total
}

// EncodeBatch appends the binary encoding of b to dst and returns the
// extended slice. The format is self-describing per column — a type tag and a
// byte-length prefix ahead of each column payload — and round-trip exact:
// floats are stored as their raw IEEE-754 bits, so -0.0 and NaN payloads
// survive a spill/restore cycle unchanged.
//
// Layout:
//
//	magic, version
//	uvarint rows, uvarint cols
//	per column:
//	  type byte
//	  uvarint payload length
//	  payload: uvarint null words + words (LE) + values
//	    int/time/float: rows × 8 bytes (BE)
//	    bool:           ceil(rows/8) packed bytes
//	    string:         per row uvarint length + bytes
func EncodeBatch(dst []byte, b *ColumnBatch) []byte {
	dst = append(dst, batchMagic, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	var payload []byte
	for c := range b.cols {
		col := &b.cols[c]
		payload = appendColumnPayload(payload[:0], col, b.n)
		dst = append(dst, byte(col.typ))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
	}
	return dst
}

// appendColumnPayload encodes the first n rows of col (vectors may be longer
// than n for Head views, which share parent storage).
func appendColumnPayload(dst []byte, col *Column, n int) []byte {
	// Null bitmap: only the words covering rows [0,n), with stray bits past n
	// in the last word masked off (a Head view shares its parent's bitmap).
	words := (n + 63) / 64
	if words > len(col.nulls) {
		words = len(col.nulls)
	}
	dst = binary.AppendUvarint(dst, uint64(words))
	for w := 0; w < words; w++ {
		word := col.nulls[w]
		if hi := n - w*64; hi < 64 {
			word &= (1 << uint(hi)) - 1
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	return appendRawValues(dst, col, n)
}

// DecodeBatch reconstructs a batch encoded by EncodeBatch or EncodeBatchV2.
// The version byte selects the codec — v1 raw frames (the small-frame
// fallback of spill files) and v2 compressed frames (frame.go) both decode.
// The schema must be the one the batch was encoded under; column
// count and per-column types are verified against it.
func DecodeBatch(schema *Schema, data []byte) (*ColumnBatch, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: decode needs a schema", ErrEmptySchema)
	}
	if len(data) < 2 || data[0] != batchMagic {
		return nil, fmt.Errorf("%w: missing magic/version header", ErrBadBatchEncoding)
	}
	if data[1] == batchVersion2 {
		// No frame flag is defined: a nonzero flags byte is a frame this
		// codec cannot read.
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: truncated frame flags", ErrBadBatchEncoding)
		}
		if flags := data[2]; flags != 0 {
			return nil, fmt.Errorf("%w: unknown frame flags %#x", ErrBadBatchEncoding, flags)
		}
		return decodeBatchV2(schema, data[3:])
	}
	if data[1] != batchVersion {
		return nil, fmt.Errorf("%w: unsupported codec version %d", ErrBadBatchEncoding, data[1])
	}
	data = data[2:]
	rows, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated row count", ErrBadBatchEncoding)
	}
	data = data[k:]
	// Cheapest possible column footprint is one bit per row (packed bools),
	// so a row count past 8× the remaining bytes cannot be backed by any
	// payload — reject it here instead of letting a corrupt frame drive a
	// huge allocation below.
	if rows > uint64(len(data))*8 {
		return nil, fmt.Errorf("%w: row count %d exceeds payload capacity", ErrBadBatchEncoding, rows)
	}
	cols, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated column count", ErrBadBatchEncoding)
	}
	data = data[k:]
	if int(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: batch has %d columns, schema %s has %d",
			ErrBadBatchEncoding, cols, schema, schema.Len())
	}
	n := int(rows)
	b := &ColumnBatch{schema: schema, cols: make([]Column, cols), n: n}
	for c := range b.cols {
		if len(data) < 1 {
			return nil, fmt.Errorf("%w: truncated column %d", ErrBadBatchEncoding, c)
		}
		typ := FieldType(data[0])
		if want := schema.Field(c).Type; typ != want {
			return nil, fmt.Errorf("%w: column %d encoded as %s, schema expects %s",
				ErrBadBatchEncoding, c, typ, want)
		}
		data = data[1:]
		plen, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < plen {
			return nil, fmt.Errorf("%w: truncated column %d payload", ErrBadBatchEncoding, c)
		}
		data = data[k:]
		if err := decodeColumnPayload(&b.cols[c], typ, data[:plen], n); err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		data = data[plen:]
	}
	return b, nil
}

func decodeColumnPayload(col *Column, typ FieldType, data []byte, n int) error {
	col.typ = typ
	words, k := binary.Uvarint(data)
	// Compare by division, not words*8: a forged word count near 2^64 would
	// overflow the multiplication and slip past the bound.
	if k <= 0 || words > uint64(len(data)-k)/8 {
		return fmt.Errorf("%w: truncated null bitmap", ErrBadBatchEncoding)
	}
	data = data[k:]
	if words > 0 {
		col.nulls = make(nullBitmap, words)
		for w := range col.nulls {
			col.nulls[w] = binary.LittleEndian.Uint64(data[w*8:])
		}
		data = data[words*8:]
	}
	return decodeRawValues(col, typ, data, n)
}

// batchSlot is one sealed batch of a partition: resident (batch != nil) or
// spilled (a frame of the spill file).
type batchSlot struct {
	batch *ColumnBatch
	mem   int64 // BatchMemSize estimate while resident
	rows  int
	at    spillRange // spill-file location once spilled
	cold  bool
}

// PartitionStore holds the sealed column batches of a fixed number of
// partitions, spilling cold batches to a single temp file when a memory
// budget is configured and exceeded. Appends are expected from one goroutine
// (the shuffle gather loop); reads (Partition, EachBatch) are safe from
// concurrent task goroutines once appending is done. Close releases the spill
// file; the store is single-use.
type PartitionStore struct {
	spillFile

	mu     sync.Mutex
	schema *Schema
	parts  [][]*batchSlot
	rows   []int

	budget   int64
	resident int64
	// appendOrder tracks resident slots oldest-first, so spilling evicts the
	// coldest batches.
	appendOrder []*batchSlot
}

// NewPartitionStore returns an empty store over nParts partitions of batches
// sharing the given schema. budget bounds the bytes of batch data the store
// keeps resident (estimated by BatchMemSize): once an append pushes the
// resident total past it, the coldest batches — oldest appends first — are
// encoded to the store's spill file in spillDir ("" keeps os.TempDir(); the
// directory must exist) and their memory released. budget <= 0 means
// unlimited: nothing ever spills.
func NewPartitionStore(schema *Schema, nParts int, budget int64, spillDir string) (*PartitionStore, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: partition store needs a schema", ErrEmptySchema)
	}
	if nParts < 1 {
		nParts = 1
	}
	return &PartitionStore{
		spillFile: spillFile{dir: spillDir},
		schema:    schema,
		parts:     make([][]*batchSlot, nParts),
		rows:      make([]int, nParts),
		budget:    budget,
	}, nil
}

// Partitions returns the number of partitions.
func (s *PartitionStore) Partitions() int { return len(s.parts) }

// PartitionRows returns the number of rows accumulated in partition p.
func (s *PartitionStore) PartitionRows(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows[p]
}

// Append seals b into partition p. The batch must not be mutated afterwards
// (the store may hold a reference until it spills). Under budget pressure the
// coldest resident batches — possibly b itself — are spilled before Append
// returns, so resident bytes stay at or under the budget whenever batches are
// individually smaller than it.
func (s *PartitionStore) Append(p int, b *ColumnBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &batchSlot{batch: b, mem: BatchMemSize(b), rows: b.Len()}
	s.parts[p] = append(s.parts[p], slot)
	s.rows[p] += b.Len()
	s.resident += slot.mem
	s.appendOrder = append(s.appendOrder, slot)
	return s.enforceBudgetLocked()
}

// enforceBudgetLocked spills oldest resident slots until the resident total
// fits the budget, releasing each one's memory. Caller holds s.mu.
func (s *PartitionStore) enforceBudgetLocked() error {
	if s.budget <= 0 {
		return nil
	}
	i := 0
	for s.resident > s.budget && i < len(s.appendOrder) {
		slot := s.appendOrder[i]
		i++
		at, err := s.write(slot.batch)
		if err != nil {
			return err
		}
		slot.at, slot.cold, slot.batch = at, true, nil
		s.resident -= slot.mem
	}
	s.appendOrder = s.appendOrder[i:]
	return nil
}

// EachBatch streams the batches of partition p in append order, restoring
// spilled ones transparently. At most one restored batch is alive at a time,
// so a streaming consumer's extra memory is bounded by the largest batch.
func (s *PartitionStore) EachBatch(p int, f func(*ColumnBatch) error) error {
	s.mu.Lock()
	slots := s.parts[p]
	s.mu.Unlock()
	for _, slot := range slots {
		b := slot.batch
		if slot.cold {
			var err error
			if b, err = s.read(s.schema, slot.at); err != nil {
				return err
			}
		}
		if err := f(b); err != nil {
			return err
		}
	}
	return nil
}

// Partition materialises every batch of partition p, restoring spilled ones.
func (s *PartitionStore) Partition(p int) ([]*ColumnBatch, error) {
	var out []*ColumnBatch
	err := s.EachBatch(p, func(b *ColumnBatch) error {
		out = append(out, b)
		return nil
	})
	return out, err
}

// FlattenPartition concatenates partition p into one batch (typed copies),
// restoring spilled batches one at a time — the build-side read path of the
// spilled hash join. A partition holding a single resident batch (the
// unbudgeted shuffle's shape) is returned directly without copying; callers
// must treat the result as read-only either way.
func (s *PartitionStore) FlattenPartition(p int) (*ColumnBatch, error) {
	s.mu.Lock()
	if slots := s.parts[p]; len(slots) == 1 && !slots[0].cold {
		b := slots[0].batch
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	out := NewColumnBatch(s.schema, s.PartitionRows(p))
	err := s.EachBatch(p, func(b *ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			out.AppendRowFrom(b, i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
