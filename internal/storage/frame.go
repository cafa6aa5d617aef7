package storage

// frame.go implements version 2 of the batch codec: compressed spill frames.
// Where the v1 layout (spill.go) writes fixed 8-byte ints/floats and full
// length-prefixed strings per row, v2 picks a lightweight per-column encoding
// and falls back to the raw v1 payload whenever the encoding does not win:
//
//   - string columns dictionary-encode: a sorted unique-value dictionary per
//     frame followed by one uvarint code per row. Because the dictionary is
//     sorted, code order equals string order and code equality equals string
//     equality within the frame, which is what lets the dataflow layer run
//     group-by/distinct/sort fast paths directly on codes (batch.go keeps the
//     dictionary and codes on the decoded Column);
//   - int/time columns delta-encode: zig-zag varints of the first value and
//     the successive differences, so sorted ids and timestamps shrink to a
//     byte or two per row;
//   - bool columns and null bitmaps run-length encode;
//   - float columns stay raw (IEEE-754 bit exactness is the codec contract
//     and floats rarely compress without loss).
//
// Spill stores write every frame through encodeSpillFrame, which keeps the v1
// bytes whenever the v2 frame would be larger; the durable store writes
// EncodeBatchV2 frames into its segments. DecodeBatch (spill.go) dispatches on
// the version byte, so either layout decodes without options.
//
// Every encoding decision is deterministic (sorted dictionaries, fixed
// tie-breaks), so re-encoding identical batches yields identical bytes — the
// property the aggregation spill tests rely on.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// batchVersion2 is the compressed-frame codec version.
const batchVersion2 byte = 2

// Column encoding tags (v2). encRaw payloads use the exact v1 value layout.
const (
	encRaw   byte = 0
	encDict  byte = 1 // strings: sorted dictionary + per-row codes
	encDelta byte = 2 // ints/times: zig-zag varint first value + deltas
	encRLE   byte = 3 // bools: run-length runs
)

// Null-section modes (v2). The null bitmap is framed separately from the
// value payload so it can RLE independently of the value encoding.
const (
	nullsNone byte = 0
	nullsRaw  byte = 1 // uvarint words + little-endian words (v1 layout)
	nullsRLE  byte = 2 // uvarint runs + run lengths, first run non-null
)

// maxFrameRows bounds the row count a v2 frame may declare. The run-length
// and dictionary encodings decouple payload size from row count, so without a
// bound a corrupt frame could declare an absurd row count and drive a huge
// allocation before any per-row data is read. Encoders fall back to v1 (whose
// row count is naturally bounded by payload bytes) for batches past the
// bound; real spill frames are orders of magnitude smaller.
const maxFrameRows = 1 << 24

// EncodeBatchV2 appends the v2 compressed-frame encoding of b: a magic,
// version and zero flags byte, then the per-column encoded body. A batch past
// maxFrameRows is written in the v1 layout instead. DecodeBatch accepts
// either, so readers need no options.
func EncodeBatchV2(dst []byte, b *ColumnBatch) []byte {
	if b.n > maxFrameRows {
		return EncodeBatch(dst, b)
	}
	dst = append(dst, batchMagic, batchVersion2, 0)
	return appendFrameBody(dst, b)
}

// encodeSpillFrame appends the spill encoding of b and returns it with the
// batch's logical (v1-equivalent) size. A v2 frame that comes out larger than
// the v1 encoding — tiny batches, where the per-column encoding tags outweigh
// any saving — is replaced by the v1 encoding, so a spill never writes more
// physical than logical bytes.
func encodeSpillFrame(dst []byte, b *ColumnBatch) ([]byte, int64) {
	base := len(dst)
	dst = EncodeBatchV2(dst, b)
	logical := EncodedSizeV1(b)
	if int64(len(dst)-base) > logical {
		dst = EncodeBatch(dst[:base], b)
	}
	return dst, logical
}

// appendFrameBody appends the v2 body: row/column counts then each column as
// a (type, encoding, payload-length, payload) record.
func appendFrameBody(dst []byte, b *ColumnBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	var scratch, raw []byte
	for c := range b.cols {
		col := &b.cols[c]
		enc := encRaw
		scratch = appendNullSection(scratch[:0], col, b.n)
		switch col.typ {
		case TypeInt, TypeTime:
			raw = appendRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = appendDeltaInts(scratch, col.ints[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encDelta
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		case TypeString:
			raw = appendRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = appendDictStrings(scratch, col.strs[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encDict
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		case TypeBool:
			raw = appendRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = appendRLEBools(scratch, col.bools[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encRLE
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		default: // floats (and anything future) stay raw
			scratch = appendRawValues(scratch, col, b.n)
		}
		dst = append(dst, byte(col.typ), enc)
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst
}

// appendNullSection encodes col's null bitmap over rows [0, n) in whichever
// of the raw/RLE forms is smaller (or a single mode byte when the column has
// no nulls in range).
func appendNullSection(dst []byte, col *Column, n int) []byte {
	words := (n + 63) / 64
	if words > len(col.nulls) {
		words = len(col.nulls)
	}
	// Mask stray bits past n (Head views share a longer parent bitmap) and
	// drop trailing all-zero words so an effectively null-free column costs
	// one byte.
	masked := make(nullBitmap, words)
	for w := 0; w < words; w++ {
		word := col.nulls[w]
		if hi := n - w*64; hi < 64 {
			word &= (1 << uint(hi)) - 1
		}
		masked[w] = word
	}
	for len(masked) > 0 && masked[len(masked)-1] == 0 {
		masked = masked[:len(masked)-1]
	}
	if len(masked) == 0 {
		return append(dst, nullsNone)
	}
	var raw []byte
	raw = binary.AppendUvarint(raw, uint64(len(masked)))
	for _, w := range masked {
		raw = binary.LittleEndian.AppendUint64(raw, w)
	}
	// RLE over row status: alternating run lengths, first run non-null.
	var runs []byte
	nRuns := 0
	i := 0
	for i < n {
		status := masked.get(i)
		j := i
		for j < n && masked.get(j) == status {
			j++
		}
		if nRuns == 0 && status {
			// First run must be non-null by convention; emit a zero-length
			// non-null run ahead of a leading null run.
			runs = binary.AppendUvarint(runs, 0)
			nRuns++
		}
		runs = binary.AppendUvarint(runs, uint64(j-i))
		nRuns++
		i = j
	}
	var rle []byte
	rle = binary.AppendUvarint(rle, uint64(nRuns))
	rle = append(rle, runs...)
	if len(rle) < len(raw) {
		dst = append(dst, nullsRLE)
		return append(dst, rle...)
	}
	dst = append(dst, nullsRaw)
	return append(dst, raw...)
}

// appendRawValues encodes col's value vector in the v1 value layout, without
// the null bitmap prefix: the v1 encoder (spill.go) and v2's raw encoding
// share it.
func appendRawValues(dst []byte, col *Column, n int) []byte {
	switch col.typ {
	case TypeInt, TypeTime:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, uint64(col.ints[i]))
		}
	case TypeFloat:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(col.floats[i]))
		}
	case TypeBool:
		packed := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if col.bools[i] {
				packed[i>>3] |= 1 << uint(i&7)
			}
		}
		dst = append(dst, packed...)
	case TypeString:
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(len(col.strs[i])))
			dst = append(dst, col.strs[i]...)
		}
	}
	return dst
}

// zigzag folds signed deltas into unsigned varint space (small magnitudes of
// either sign stay short).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDeltaInts encodes vals as zig-zag varints of the first value and each
// successive delta.
func appendDeltaInts(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// appendDictStrings encodes vals as a sorted unique-value dictionary followed
// by one uvarint code per row. Sorting makes the encoding deterministic and
// gives decoded frames the sorted-dictionary invariant the code-based
// operator fast paths rely on.
func appendDictStrings(dst []byte, vals []string) []byte {
	uniq := make(map[string]uint32, len(vals)/4+1)
	for _, s := range vals {
		if _, ok := uniq[s]; !ok {
			uniq[s] = 0
		}
	}
	dict := make([]string, 0, len(uniq))
	for s := range uniq {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		uniq[s] = uint32(i)
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, s := range vals {
		dst = binary.AppendUvarint(dst, uint64(uniq[s]))
	}
	return dst
}

// appendRLEBools encodes vals as a first-value byte plus alternating run
// lengths.
func appendRLEBools(dst []byte, vals []bool) []byte {
	var first byte
	if len(vals) > 0 && vals[0] {
		first = 1
	}
	var runs []byte
	nRuns := 0
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs = binary.AppendUvarint(runs, uint64(j-i))
		nRuns++
		i = j
	}
	dst = append(dst, first)
	dst = binary.AppendUvarint(dst, uint64(nRuns))
	return append(dst, runs...)
}

// decodeBatchV2 reconstructs a v2 frame body (the bytes after the flags).
func decodeBatchV2(schema *Schema, data []byte) (*ColumnBatch, error) {
	rows, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated row count", ErrBadBatchEncoding)
	}
	data = data[k:]
	if rows > maxFrameRows {
		return nil, fmt.Errorf("%w: row count %d exceeds frame bound", ErrBadBatchEncoding, rows)
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
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: truncated column %d", ErrBadBatchEncoding, c)
		}
		typ := FieldType(data[0])
		if want := schema.Field(c).Type; typ != want {
			return nil, fmt.Errorf("%w: column %d encoded as %s, schema expects %s",
				ErrBadBatchEncoding, c, typ, want)
		}
		enc := data[1]
		data = data[2:]
		plen, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < plen {
			return nil, fmt.Errorf("%w: truncated column %d payload", ErrBadBatchEncoding, c)
		}
		data = data[k:]
		if err := decodeColumnPayloadV2(&b.cols[c], typ, enc, data[:plen], n); err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		data = data[plen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame body", ErrBadBatchEncoding, len(data))
	}
	return b, nil
}

// decodeColumnPayloadV2 decodes one v2 column payload: the null section, then
// the values under the declared encoding.
func decodeColumnPayloadV2(col *Column, typ FieldType, enc byte, data []byte, n int) error {
	col.typ = typ
	rest, err := decodeNullSection(col, data, n)
	if err != nil {
		return err
	}
	data = rest
	switch {
	case enc == encRaw:
		return decodeRawValues(col, typ, data, n)
	case enc == encDelta && (typ == TypeInt || typ == TypeTime):
		return decodeDeltaInts(col, data, n)
	case enc == encDict && typ == TypeString:
		return decodeDictStrings(col, data, n)
	case enc == encRLE && typ == TypeBool:
		return decodeRLEBools(col, data, n)
	default:
		return fmt.Errorf("%w: encoding %d invalid for column type %s", ErrBadBatchEncoding, enc, typ)
	}
}

// decodeNullSection parses the null-section prefix into col.nulls, returning
// the remaining value bytes.
func decodeNullSection(col *Column, data []byte, n int) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: truncated null section", ErrBadBatchEncoding)
	}
	mode := data[0]
	data = data[1:]
	switch mode {
	case nullsNone:
		return data, nil
	case nullsRaw:
		words, k := binary.Uvarint(data)
		// Division-based bound: a forged word count near 2^64 would overflow
		// a words*8 comparison.
		if k <= 0 || words > uint64(len(data)-k)/8 {
			return nil, fmt.Errorf("%w: truncated null bitmap", ErrBadBatchEncoding)
		}
		data = data[k:]
		if words > uint64(n+63)/64 {
			return nil, fmt.Errorf("%w: null bitmap longer than row count", ErrBadBatchEncoding)
		}
		if words > 0 {
			col.nulls = make(nullBitmap, words)
			for w := range col.nulls {
				col.nulls[w] = binary.LittleEndian.Uint64(data[w*8:])
			}
			data = data[words*8:]
		}
		return data, nil
	case nullsRLE:
		nRuns, k := binary.Uvarint(data)
		if k <= 0 || nRuns > uint64(len(data)-k) {
			return nil, fmt.Errorf("%w: truncated null runs", ErrBadBatchEncoding)
		}
		data = data[k:]
		row := uint64(0)
		null := false
		for r := uint64(0); r < nRuns; r++ {
			l, k := binary.Uvarint(data)
			if k <= 0 {
				return nil, fmt.Errorf("%w: truncated null run %d", ErrBadBatchEncoding, r)
			}
			data = data[k:]
			if l > uint64(n)-row {
				return nil, fmt.Errorf("%w: null runs exceed row count", ErrBadBatchEncoding)
			}
			if null {
				for i := row; i < row+l; i++ {
					col.nulls.set(int(i))
				}
			}
			row += l
			null = !null
		}
		if row != uint64(n) {
			return nil, fmt.Errorf("%w: null runs cover %d of %d rows", ErrBadBatchEncoding, row, n)
		}
		return data, nil
	default:
		return nil, fmt.Errorf("%w: unknown null-section mode %d", ErrBadBatchEncoding, mode)
	}
}

// decodeRawValues decodes a raw (v1-layout) value payload.
func decodeRawValues(col *Column, typ FieldType, data []byte, n int) error {
	switch typ {
	case TypeInt, TypeTime:
		if len(data) != n*8 {
			return fmt.Errorf("%w: int column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), n*8)
		}
		col.ints = make([]int64, n)
		for i := range col.ints {
			col.ints[i] = int64(binary.BigEndian.Uint64(data[i*8:]))
		}
	case TypeFloat:
		if len(data) != n*8 {
			return fmt.Errorf("%w: float column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), n*8)
		}
		col.floats = make([]float64, n)
		for i := range col.floats {
			col.floats[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
		}
	case TypeBool:
		if len(data) != (n+7)/8 {
			return fmt.Errorf("%w: bool column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), (n+7)/8)
		}
		col.bools = make([]bool, n)
		for i := range col.bools {
			col.bools[i] = data[i>>3]&(1<<uint(i&7)) != 0
		}
	case TypeString:
		col.strs = make([]string, n)
		for i := range col.strs {
			l, k := binary.Uvarint(data)
			if k <= 0 || uint64(len(data)-k) < l {
				return fmt.Errorf("%w: truncated string row %d", ErrBadBatchEncoding, i)
			}
			col.strs[i] = string(data[k : k+int(l)])
			data = data[k+int(l):]
		}
		if len(data) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after string column", ErrBadBatchEncoding, len(data))
		}
		return nil
	default:
		return fmt.Errorf("%w: unsupported column type %d", ErrBadBatchEncoding, typ)
	}
	return nil
}

// decodeDeltaInts decodes a zig-zag delta payload. Each row costs at least
// one byte, so the row count is bounded by the payload length before any
// allocation.
func decodeDeltaInts(col *Column, data []byte, n int) error {
	if n > len(data) {
		return fmt.Errorf("%w: delta payload too short for %d rows", ErrBadBatchEncoding, n)
	}
	col.ints = make([]int64, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated delta row %d", ErrBadBatchEncoding, i)
		}
		data = data[k:]
		prev += unzigzag(u)
		col.ints[i] = prev
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after delta column", ErrBadBatchEncoding, len(data))
	}
	return nil
}

// decodeDictStrings decodes a dictionary payload, keeping the dictionary and
// the per-row codes on the column (batch.go) so operator fast paths can run
// on codes. The dictionary must be strictly sorted — the invariant the fast
// paths rely on — and every code in range; anything else is a corrupt frame.
func decodeDictStrings(col *Column, data []byte, n int) error {
	dictLen, k := binary.Uvarint(data)
	if k <= 0 || dictLen > uint64(len(data)-k) || dictLen > uint64(n) {
		return fmt.Errorf("%w: bad dictionary length", ErrBadBatchEncoding)
	}
	data = data[k:]
	dict := make([]string, dictLen)
	for i := range dict {
		l, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < l {
			return fmt.Errorf("%w: truncated dictionary entry %d", ErrBadBatchEncoding, i)
		}
		dict[i] = string(data[k : k+int(l)])
		if i > 0 && dict[i] <= dict[i-1] {
			return fmt.Errorf("%w: dictionary not strictly sorted at entry %d", ErrBadBatchEncoding, i)
		}
		data = data[k+int(l):]
	}
	if n > 0 && dictLen == 0 {
		return fmt.Errorf("%w: empty dictionary for %d rows", ErrBadBatchEncoding, n)
	}
	codes := make([]uint32, n)
	col.strs = make([]string, n)
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data)
		if k <= 0 || u >= dictLen {
			return fmt.Errorf("%w: bad dictionary code at row %d", ErrBadBatchEncoding, i)
		}
		data = data[k:]
		codes[i] = uint32(u)
		col.strs[i] = dict[u]
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after dictionary column", ErrBadBatchEncoding, len(data))
	}
	col.dict = dict
	col.codes = codes
	return nil
}

// decodeRLEBools decodes a run-length bool payload.
func decodeRLEBools(col *Column, data []byte, n int) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: truncated bool runs", ErrBadBatchEncoding)
	}
	val := data[0] != 0
	data = data[1:]
	nRuns, k := binary.Uvarint(data)
	if k <= 0 || nRuns > uint64(len(data)-k) {
		return fmt.Errorf("%w: truncated bool run count", ErrBadBatchEncoding)
	}
	data = data[k:]
	col.bools = make([]bool, n)
	row := uint64(0)
	for r := uint64(0); r < nRuns; r++ {
		l, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated bool run %d", ErrBadBatchEncoding, r)
		}
		data = data[k:]
		if l > uint64(n)-row {
			return fmt.Errorf("%w: bool runs exceed row count", ErrBadBatchEncoding)
		}
		if val {
			for i := row; i < row+l; i++ {
				col.bools[i] = true
			}
		}
		row += l
		val = !val
	}
	if row != uint64(n) {
		return fmt.Errorf("%w: bool runs cover %d of %d rows", ErrBadBatchEncoding, row, n)
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after bool runs", ErrBadBatchEncoding, len(data))
	}
	return nil
}

// EncodedSizeV1 computes the exact byte length EncodeBatch would produce for
// b without encoding it — the "logical" spilled size the stores report next
// to the physical (possibly compressed) bytes actually written.
func EncodedSizeV1(b *ColumnBatch) int64 {
	size := int64(2) // magic + version
	size += uvarintLen(uint64(b.n)) + uvarintLen(uint64(len(b.cols)))
	for c := range b.cols {
		col := &b.cols[c]
		words := (b.n + 63) / 64
		if words > len(col.nulls) {
			words = len(col.nulls)
		}
		plen := uvarintLen(uint64(words)) + 8*int64(words)
		switch col.typ {
		case TypeInt, TypeTime, TypeFloat:
			plen += 8 * int64(b.n)
		case TypeBool:
			plen += int64((b.n + 7) / 8)
		case TypeString:
			for i := 0; i < b.n; i++ {
				l := len(col.strs[i])
				plen += uvarintLen(uint64(l)) + int64(l)
			}
		}
		size += 1 + uvarintLen(uint64(plen)) + plen
	}
	return size
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
