package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func spillTestSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "id", Type: TypeInt},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "name", Type: TypeString, Nullable: true},
		Field{Name: "active", Type: TypeBool},
		Field{Name: "at", Type: TypeTime, Nullable: true},
	)
}

func spillTestRows(n int) []Row {
	negZero := math.Copysign(0, -1)
	rows := make([]Row, n)
	for i := range rows {
		var score Value = float64(i) / 3
		switch i % 5 {
		case 1:
			score = nil
		case 2:
			score = negZero
		case 3:
			score = math.NaN()
		}
		var name Value = "row"
		if i%4 == 0 {
			name = nil
		} else if i%7 == 0 {
			name = "" // empty and null strings must survive distinctly
		}
		var at Value = int64(1700000000000 + i)
		if i%6 == 0 {
			at = nil
		}
		rows[i] = Row{int64(i), score, name, i%2 == 0, at}
	}
	return rows
}

// assertBatchesEqual compares two batches cell by cell, treating NaN bit
// patterns as equal to themselves (reflect.DeepEqual would reject NaN == NaN).
func assertBatchesEqual(t *testing.T, got, want *ColumnBatch) {
	t.Helper()
	if got.Len() != want.Len() || got.Width() != want.Width() {
		t.Fatalf("batch shape = (%d,%d), want (%d,%d)", got.Len(), got.Width(), want.Len(), want.Width())
	}
	for i := 0; i < want.Len(); i++ {
		for c := 0; c < want.Width(); c++ {
			if got.NullAt(i, c) != want.NullAt(i, c) {
				t.Fatalf("cell (%d,%d) nullness = %v, want %v", i, c, got.NullAt(i, c), want.NullAt(i, c))
			}
			g, w := got.Value(i, c), want.Value(i, c)
			if gf, ok := g.(float64); ok {
				wf, ok := w.(float64)
				if !ok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("cell (%d,%d) float bits %x, want %x (%v vs %v)", i, c,
						math.Float64bits(gf), math.Float64bits(wf), g, w)
				}
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("cell (%d,%d) = %#v, want %#v", i, c, g, w)
			}
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	schema := spillTestSchema(t)
	b, err := BatchFromRows(schema, spillTestRows(137))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeBatch(nil, b)
	dec, err := DecodeBatch(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, dec, b)

	// Re-encoding the decoded batch must be byte-identical: the codec is
	// canonical, so spill files round-trip exactly (floats included).
	enc2 := EncodeBatch(nil, dec)
	if string(enc) != string(enc2) {
		t.Error("re-encoding a decoded batch must be byte-identical")
	}
}

func TestBatchCodecEmptyBatch(t *testing.T) {
	schema := spillTestSchema(t)
	b := NewColumnBatch(schema, 0)
	dec, err := DecodeBatch(schema, EncodeBatch(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 0 || dec.Width() != schema.Len() {
		t.Fatalf("empty round trip = (%d,%d)", dec.Len(), dec.Width())
	}
}

// TestBatchCodecHeadView encodes a Head view (which shares its parent's
// longer vectors and null bitmap) and checks only the visible rows survive.
func TestBatchCodecHeadView(t *testing.T) {
	schema := spillTestSchema(t)
	parent, err := BatchFromRows(schema, spillTestRows(100))
	if err != nil {
		t.Fatal(err)
	}
	head := parent.Head(7)
	dec, err := DecodeBatch(schema, EncodeBatch(nil, head))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BatchFromRows(schema, spillTestRows(100)[:7])
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, dec, want)
}

func TestBatchCodecRejectsCorruptInput(t *testing.T) {
	schema := spillTestSchema(t)
	b, err := BatchFromRows(schema, spillTestRows(10))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeBatch(nil, b)
	for name, data := range map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte{0x00}, enc[1:]...),
		"truncated":    enc[:len(enc)/2],
		"short header": enc[:3],
	} {
		if _, err := DecodeBatch(schema, data); !errors.Is(err, ErrBadBatchEncoding) {
			t.Errorf("%s: error = %v, want ErrBadBatchEncoding", name, err)
		}
	}
	// A forged row count far past what any payload could back must be
	// rejected before allocation (it used to drive a makeslice panic on
	// string columns), and so must a null-word count whose byte size
	// overflows uint64.
	huge := []byte{0xCB, 0x01}
	huge = binary.AppendUvarint(huge, 1<<40)
	huge = binary.AppendUvarint(huge, uint64(schema.Len()))
	huge = append(huge, byte(TypeString), 1, 0)
	if _, err := DecodeBatch(schema, huge); !errors.Is(err, ErrBadBatchEncoding) {
		t.Errorf("huge row count: error = %v, want ErrBadBatchEncoding", err)
	}
	wordBomb := []byte{0xCB, 0x01}
	wordBomb = binary.AppendUvarint(wordBomb, 1)
	wordBomb = binary.AppendUvarint(wordBomb, uint64(schema.Len()))
	wordBomb = append(wordBomb, byte(TypeInt), 12)
	wordBomb = binary.AppendUvarint(wordBomb, 1<<62) // words*8 would overflow
	wordBomb = append(wordBomb, make([]byte, 8)...)
	if _, err := DecodeBatch(schema, wordBomb); !errors.Is(err, ErrBadBatchEncoding) {
		t.Errorf("null-word overflow: error = %v, want ErrBadBatchEncoding", err)
	}

	// Wrong schema: same width, different column type.
	other := MustSchema(
		Field{Name: "id", Type: TypeString},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "name", Type: TypeString, Nullable: true},
		Field{Name: "active", Type: TypeBool},
		Field{Name: "at", Type: TypeTime, Nullable: true},
	)
	if _, err := DecodeBatch(other, enc); !errors.Is(err, ErrBadBatchEncoding) {
		t.Errorf("type mismatch error = %v, want ErrBadBatchEncoding", err)
	}
}

func TestPartitionStoreUnlimitedKeepsEverythingResident(t *testing.T) {
	schema := spillTestSchema(t)
	store, err := NewPartitionStore(schema, 2, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows := spillTestRows(60)
	for p := 0; p < 2; p++ {
		b, err := BatchFromRows(schema, rows[p*30:(p+1)*30])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(p, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.SpilledBatches(); got != 0 {
		t.Fatalf("unlimited store spilled %d batches", got)
	}
	if got := store.PartitionRows(1); got != 30 {
		t.Fatalf("PartitionRows(1) = %d, want 30", got)
	}
	batches, err := store.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Len() != 30 {
		t.Fatalf("partition 0 = %d batches", len(batches))
	}
}

func TestPartitionStoreSpillsAndRestores(t *testing.T) {
	schema := spillTestSchema(t)
	// Budget of one byte: every append immediately spills every batch.
	store, err := NewPartitionStore(schema, 3, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows := spillTestRows(90)
	want := make([]*ColumnBatch, 3)
	for p := 0; p < 3; p++ {
		b, err := BatchFromRows(schema, rows[p*30:(p+1)*30])
		if err != nil {
			t.Fatal(err)
		}
		want[p] = b
		if err := store.Append(p, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.SpilledBatches(); got != 3 {
		t.Fatalf("SpilledBatches = %d, want 3", got)
	}
	if store.SpilledBytes() <= 0 {
		t.Fatal("SpilledBytes must be positive after spilling")
	}
	for p := 0; p < 3; p++ {
		batches, err := store.Partition(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) != 1 {
			t.Fatalf("partition %d = %d batches, want 1", p, len(batches))
		}
		assertBatchesEqual(t, batches[0], want[p])
	}
	if got := store.RestoredBatches(); got != 3 {
		t.Fatalf("RestoredBatches = %d, want 3", got)
	}
	// Reading must not unspill: a second read restores again.
	if _, err := store.Partition(0); err != nil {
		t.Fatal(err)
	}
	if got := store.RestoredBatches(); got != 4 {
		t.Fatalf("RestoredBatches after re-read = %d, want 4", got)
	}
}

// TestPartitionStoreBudgetEvictsColdestFirst appends three batches under a
// budget that fits two and checks the oldest spilled while the newer stayed
// resident.
func TestPartitionStoreBudgetEvictsColdestFirst(t *testing.T) {
	schema := MustSchema(Field{Name: "id", Type: TypeInt})
	mkBatch := func(base int) *ColumnBatch {
		rows := make([]Row, 100)
		for i := range rows {
			rows[i] = Row{int64(base + i)}
		}
		b, err := BatchFromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := BatchMemSize(mkBatch(0))
	store, err := NewPartitionStore(schema, 1, 2*one, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 3; i++ {
		if err := store.Append(0, mkBatch(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.SpilledBatches(); got != 1 {
		t.Fatalf("SpilledBatches = %d, want 1 (two fit the budget)", got)
	}
	// Order must be append order regardless of residency.
	var first []int64
	err = store.EachBatch(0, func(b *ColumnBatch) error {
		first = append(first, b.Column(0).Int(0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, []int64{0, 100, 200}) {
		t.Fatalf("batch order = %v, want [0 100 200]", first)
	}
}

func TestPartitionStoreFlattenPartition(t *testing.T) {
	schema := spillTestSchema(t)
	store, err := NewPartitionStore(schema, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows := spillTestRows(50)
	for i := 0; i < 5; i++ {
		b, err := BatchFromRows(schema, rows[i*10:(i+1)*10])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(0, b); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := store.FlattenPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, flat, want)
}

// TestSpillStoresWriteV1FramesForOneRowBatches feeds both spill stores only
// 1-row batches. For these rows the v2 frame's per-column encoding tags
// outweigh anything it saves (floats, short strings and bools stay raw; the
// int's magnitude defeats the varint delta; at most one null per row), so
// every frame must fall back to the v1 layout — physical bytes equal logical
// bytes — and restore bit-identically, nulls, -0.0 and NaN payloads included.
func TestSpillStoresWriteV1FramesForOneRowBatches(t *testing.T) {
	schema := MustSchema(
		Field{Name: "seq", Type: TypeInt},
		Field{Name: "x", Type: TypeFloat, Nullable: true},
		Field{Name: "y", Type: TypeFloat},
		Field{Name: "z", Type: TypeFloat},
		Field{Name: "s", Type: TypeString, Nullable: true},
		Field{Name: "flag", Type: TypeBool},
	)
	negZero := math.Copysign(0, -1)
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	const big = int64(1) << 62
	var rows []Row
	for i := 0; i < 12; i++ {
		row := Row{big + int64((i*7)%12), float64(i) / 4, negZero, nanPayload, "r", i%2 == 0}
		switch i % 3 {
		case 0:
			row[1] = nil
		case 1:
			row[4] = nil
		}
		if i%4 == 0 {
			row[2], row[3] = nanPayload, negZero
		}
		rows = append(rows, row)
	}
	oneRow := func(r Row) *ColumnBatch { return mustBatch(t, schema, []Row{r}) }
	frameVersion := func(f *spillFile, at spillRange) byte {
		buf := make([]byte, at.len)
		if _, err := f.file.ReadAt(buf, at.off); err != nil {
			t.Fatal(err)
		}
		return buf[1]
	}
	checkCounters := func(name string, f *spillFile) {
		t.Helper()
		if got := f.SpilledBatches(); got != int64(len(rows)) {
			t.Fatalf("%s: SpilledBatches = %d, want %d", name, got, len(rows))
		}
		if phys, logical := f.SpilledBytes(), f.SpilledLogicalBytes(); phys != logical {
			t.Fatalf("%s: physical %dB != logical %dB for 1-row frames", name, phys, logical)
		}
	}

	ps, err := NewPartitionStore(schema, 3, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for i, r := range rows {
		if err := ps.Append(i%3, oneRow(r)); err != nil {
			t.Fatal(err)
		}
	}
	checkCounters("PartitionStore", &ps.spillFile)
	for p := 0; p < 3; p++ {
		for _, slot := range ps.parts[p] {
			if v := frameVersion(&ps.spillFile, slot.at); v != batchVersion {
				t.Fatalf("PartitionStore frame version %d, want v1", v)
			}
		}
		var want []Row
		for i := p; i < len(rows); i += 3 {
			want = append(want, rows[i])
		}
		got, err := ps.FlattenPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchesEqual(t, got, mustBatch(t, schema, want))
	}

	rs, err := NewRunStore(schema, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for _, r := range rows {
		if err := rs.AppendRun(oneRow(r)); err != nil {
			t.Fatal(err)
		}
	}
	checkCounters("RunStore", &rs.spillFile)
	for _, run := range rs.runs {
		if v := frameVersion(&rs.spillFile, run.frames[0].at); v != batchVersion {
			t.Fatalf("RunStore frame version %d, want v1", v)
		}
	}
	bySeq := func(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int {
		return cmp.Compare(a.Column(0).Int(ai), b.Column(0).Int(bi))
	}
	merged := NewColumnBatch(schema, len(rows))
	err = rs.Merge(bySeq, 5, func(b *ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			merged.AppendRowFrom(b, i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]Row(nil), rows...)
	slices.SortFunc(sorted, func(a, b Row) int { return cmp.Compare(a[0].(int64), b[0].(int64)) })
	assertBatchesEqual(t, merged, mustBatch(t, schema, sorted))
}

// TestPartitionStoreConcurrentRestores reads spilled partitions from several
// goroutines at once — the shape of the engine's consuming tasks — so the
// race detector covers the shared spill file's read path and counters.
func TestPartitionStoreConcurrentRestores(t *testing.T) {
	schema := spillTestSchema(t)
	const parts, perPart, readers = 4, 3, 8
	store, err := NewPartitionStore(schema, parts, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows := spillTestRows(parts * perPart * 10)
	want := make([]*ColumnBatch, parts)
	for p := 0; p < parts; p++ {
		var partRows []Row
		for i := 0; i < perPart; i++ {
			chunk := rows[(p*perPart+i)*10 : (p*perPart+i+1)*10]
			partRows = append(partRows, chunk...)
			if err := store.Append(p, mustBatch(t, schema, chunk)); err != nil {
				t.Fatal(err)
			}
		}
		want[p] = mustBatch(t, schema, partRows)
	}
	got := make([]*ColumnBatch, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b, err := store.FlattenPartition(r % parts)
			if err != nil {
				t.Error(err)
				return
			}
			got[r] = b
		}(r)
	}
	wg.Wait()
	for r, b := range got {
		if b != nil {
			assertBatchesEqual(t, b, want[r%parts])
		}
	}
	if n := store.RestoredBatches(); n != readers*perPart {
		t.Fatalf("RestoredBatches = %d, want %d", n, readers*perPart)
	}
}
