package storage

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// stringHeavySchema/stringHeavyRows model the shuffle payloads the compressed
// codec targets: low-cardinality strings, sorted-ish ints, sparse nulls, and
// runs of bools.
func stringHeavySchema() *Schema {
	return MustSchema(
		Field{Name: "seq", Type: TypeInt},
		Field{Name: "region", Type: TypeString},
		Field{Name: "category", Type: TypeString, Nullable: true},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "flag", Type: TypeBool},
	)
}

func stringHeavyRows(n int) []Row {
	regions := []string{"emea-central", "emea-west", "amer-north", "amer-south", "apac-east"}
	cats := []string{"electricity", "gas", "water", "telecom"}
	rows := make([]Row, n)
	for i := range rows {
		var cat Value = cats[i%len(cats)]
		if i%11 == 0 {
			cat = nil
		}
		var score Value = float64(i%97) / 7
		if i%13 == 0 {
			score = nil
		}
		rows[i] = Row{
			int64(1_000_000 + i), // sorted: delta-encodes to ~1 byte/row
			regions[(i/16)%len(regions)],
			cat,
			score,
			(i/32)%2 == 0, // long runs: RLE wins
		}
	}
	return rows
}

func mustBatch(t *testing.T, schema *Schema, rows []Row) *ColumnBatch {
	t.Helper()
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchCodecV2RoundTrip(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) *ColumnBatch{
		"string-heavy": func(t *testing.T) *ColumnBatch {
			return mustBatch(t, stringHeavySchema(), stringHeavyRows(500))
		},
		"mixed-null-nan": func(t *testing.T) *ColumnBatch {
			return mustBatch(t, spillTestSchema(t), spillTestRows(137))
		},
		"empty": func(t *testing.T) *ColumnBatch {
			return NewColumnBatch(stringHeavySchema(), 0)
		},
		"head-view": func(t *testing.T) *ColumnBatch {
			return mustBatch(t, spillTestSchema(t), spillTestRows(100)).Head(7)
		},
	} {
		t.Run(name, func(t *testing.T) {
			b := mk(t)
			enc := EncodeBatchV2(nil, b)
			if enc[1] != batchVersion2 {
				t.Fatalf("version byte = %d, want %d", enc[1], batchVersion2)
			}
			dec, err := DecodeBatch(b.Schema(), enc)
			if err != nil {
				t.Fatal(err)
			}
			want := b
			if b.Len() < 100 && b.Len() > 0 { // head view: compare against a true copy
				want = NewColumnBatch(b.Schema(), b.Len())
				for i := 0; i < b.Len(); i++ {
					want.AppendRowFrom(b, i)
				}
			}
			assertBatchesEqual(t, dec, want)
			// Deterministic: encoding twice and re-encoding the decoded batch
			// are byte-identical (the aggregation spill tests rely on this).
			if !bytes.Equal(enc, EncodeBatchV2(nil, b)) {
				t.Error("re-encoding the same batch produced different bytes")
			}
			if !bytes.Equal(enc, EncodeBatchV2(nil, dec)) {
				t.Error("re-encoding the decoded batch produced different bytes")
			}
		})
	}
}

// TestBatchCodecV2DictInvariant pins the decoded-column dictionary contract:
// sorted dictionary, codes resolving to the row strings.
func TestBatchCodecV2DictInvariant(t *testing.T) {
	b := mustBatch(t, stringHeavySchema(), stringHeavyRows(256))
	enc := EncodeBatchV2(nil, b)
	dec, err := DecodeBatch(b.Schema(), enc)
	if err != nil {
		t.Fatal(err)
	}
	col := dec.Column(1) // region: low cardinality, dictionary must win
	dict, codes := col.Dict(), col.Codes()
	if len(dict) == 0 {
		t.Fatal("region column decoded without a dictionary")
	}
	for i := 1; i < len(dict); i++ {
		if dict[i] <= dict[i-1] {
			t.Fatalf("dictionary not strictly sorted: %q after %q", dict[i], dict[i-1])
		}
	}
	for i := 0; i < dec.Len(); i++ {
		if dict[codes[i]] != col.Str(i) {
			t.Fatalf("row %d: dict[%d]=%q != %q", i, codes[i], dict[codes[i]], col.Str(i))
		}
	}
	if !DictShared(col, col) {
		t.Error("DictShared must hold for a column against itself")
	}
	enc2 := EncodeBatchV2(nil, b)
	dec2, err := DecodeBatch(b.Schema(), enc2)
	if err != nil {
		t.Fatal(err)
	}
	if DictShared(col, dec2.Column(1)) {
		t.Error("DictShared must distinguish dictionaries of different decoded frames")
	}
}

func TestBatchCodecV2CompressionWins(t *testing.T) {
	b := mustBatch(t, stringHeavySchema(), stringHeavyRows(2000))
	v1 := EncodeBatch(nil, b)
	v2 := EncodeBatchV2(nil, b)
	if int64(len(v1)) != EncodedSizeV1(b) {
		t.Fatalf("EncodedSizeV1 = %d, actual v1 encoding = %d", EncodedSizeV1(b), len(v1))
	}
	// The ≥2x acceptance bar for string-heavy spill workloads, pinned at the
	// codec level where it is deterministic.
	if len(v2)*2 > len(v1) {
		t.Fatalf("v2 frame is %d bytes, v1 is %d: want at least 2x reduction", len(v2), len(v1))
	}
	dec, err := DecodeBatch(b.Schema(), v2)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, dec, b)
	// The spill encoder writes exactly this frame, with the v1 size as its
	// logical bytes.
	spill, logical := encodeSpillFrame(nil, b)
	if !bytes.Equal(spill, v2) || logical != int64(len(v1)) {
		t.Fatalf("encodeSpillFrame = %d bytes (logical %d), want the v2 frame (%d, logical %d)",
			len(spill), logical, len(v2), len(v1))
	}
}

func TestBatchCodecV2RejectsCorruptInput(t *testing.T) {
	schema := stringHeavySchema()
	b := mustBatch(t, schema, stringHeavyRows(64))
	enc := EncodeBatchV2(nil, b)
	// Every truncation must fail cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBatch(schema, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Single-byte corruption must error or decode — never panic. (Most flips
	// break framing; a few land in string payload bytes and decode to
	// different content, which is fine: the codec detects structure, not
	// payload bit-rot.)
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5A
		_, _ = DecodeBatch(schema, mut)
	}
	// No frame flag is defined, so any nonzero flags byte is a hard error.
	for _, flags := range []byte{0x01, 0x80} {
		bad := append([]byte(nil), enc...)
		bad[2] = flags
		if _, err := DecodeBatch(schema, bad); !errors.Is(err, ErrBadBatchEncoding) {
			t.Errorf("flags %#x: error = %v, want ErrBadBatchEncoding", flags, err)
		}
	}
	// Unsupported future version.
	bad := append([]byte(nil), enc...)
	bad[1] = 9
	if _, err := DecodeBatch(schema, bad); !errors.Is(err, ErrBadBatchEncoding) {
		t.Errorf("future version: error = %v, want ErrBadBatchEncoding", err)
	}
}

func TestPartitionStoreCompressedCounters(t *testing.T) {
	schema := stringHeavySchema()
	store, err := NewPartitionStore(schema, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows := stringHeavyRows(600)
	want := make([]*ColumnBatch, 2)
	for p := 0; p < 2; p++ {
		b := mustBatch(t, schema, rows[p*300:(p+1)*300])
		want[p] = b
		if err := store.Append(p, b); err != nil {
			t.Fatal(err)
		}
	}
	phys, logical := store.SpilledBytes(), store.SpilledLogicalBytes()
	if phys <= 0 || logical <= 0 {
		t.Fatalf("counters: physical=%d logical=%d, want both positive", phys, logical)
	}
	if phys*2 > logical {
		t.Fatalf("physical=%d logical=%d: want at least 2x compression on string-heavy data", phys, logical)
	}
	if got := store.FileBytes(); got != phys {
		t.Fatalf("FileBytes = %d, want %d (append-only file)", got, phys)
	}
	for p := 0; p < 2; p++ {
		batches, err := store.Partition(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) != 1 {
			t.Fatalf("partition %d: %d batches", p, len(batches))
		}
		assertBatchesEqual(t, batches[0], want[p])
	}
}

// TestRunStoreCompressedMerge merges string-heavy runs under a budget that
// spills the older runs into compressed frames and keeps the newest resident,
// and checks the merge against a stable in-memory sort of all rows.
func TestRunStoreCompressedMerge(t *testing.T) {
	schema := stringHeavySchema()
	cmp := func(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int {
		return strings.Compare(a.Column(1).Str(ai), b.Column(1).Str(bi))
	}
	rows := stringHeavyRows(4000)
	bounds := []int{0, 1500, 3000, 4000} // three runs, the last one smaller
	runs := make([]*ColumnBatch, len(bounds)-1)
	for r := range runs {
		part := append([]Row(nil), rows[bounds[r]:bounds[r+1]]...)
		slices.SortStableFunc(part, func(x, y Row) int { return strings.Compare(x[1].(string), y[1].(string)) })
		runs[r] = mustBatch(t, schema, part)
	}
	// Room for one and a half of the larger runs: each append past it spills
	// the oldest resident run, so runs 0 and 1 spill and run 2 stays resident.
	s, err := NewRunStore(schema, BatchMemSize(runs[0])*3/2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range runs {
		if err := s.AppendRun(b); err != nil {
			t.Fatal(err)
		}
	}
	for r, want := range []bool{true, true, false} {
		if s.runs[r].cold != want {
			t.Fatalf("run %d spilled = %v, want %v", r, s.runs[r].cold, want)
		}
	}
	if s.SpilledLogicalBytes() <= s.SpilledBytes() {
		t.Fatalf("compressed runs: logical=%d physical=%d, want logical larger",
			s.SpilledLogicalBytes(), s.SpilledBytes())
	}
	var got []Row
	err = s.Merge(cmp, 512, func(b *ColumnBatch) error {
		got = append(got, b.Rows()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Row(nil), rows...)
	slices.SortStableFunc(want, func(x, y Row) int { return strings.Compare(x[1].(string), y[1].(string)) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge of mixed resident and spilled runs differs from a stable in-memory sort")
	}
}

// TestGroupTableDictCodeCache pins that mapping a dictionary-backed frame
// through the code cache assigns exactly the ids the encoded-key path would.
func TestGroupTableDictCodeCache(t *testing.T) {
	schema := MustSchema(
		Field{Name: "region", Type: TypeString},
		Field{Name: "v", Type: TypeInt},
	)
	rows := make([]Row, 400)
	regions := []string{"gamma", "alpha", "beta", "delta"}
	for i := range rows {
		rows[i] = Row{regions[i%len(regions)], int64(i)}
	}
	b := mustBatch(t, schema, rows)
	dec, err := DecodeBatch(schema, EncodeBatchV2(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Column(0).Dict()) == 0 {
		t.Fatal("expected a dictionary-backed key column")
	}
	keySchema := MustSchema(Field{Name: "region", Type: TypeString})
	mkTable := func() *GroupTable {
		enc, err := NewKeyEncoder(schema, "region")
		if err != nil {
			t.Fatal(err)
		}
		return NewGroupTable(keySchema, []int{0}, enc)
	}
	slow, fast := mkTable(), mkTable()
	slowIDs := slow.MapBatch(b, nil)   // no dictionary: encoded-key path
	fastIDs := fast.MapBatch(dec, nil) // dictionary: code-cache path
	if len(slowIDs) != len(fastIDs) {
		t.Fatalf("id counts differ: %d vs %d", len(slowIDs), len(fastIDs))
	}
	for i := range slowIDs {
		if slowIDs[i] != fastIDs[i] {
			t.Fatalf("row %d: id %d (slow) vs %d (fast)", i, slowIDs[i], fastIDs[i])
		}
	}
	if slow.Groups() != fast.Groups() {
		t.Fatalf("group counts differ: %d vs %d", slow.Groups(), fast.Groups())
	}
	for g := 0; g < slow.Groups(); g++ {
		if slow.Key(g) != fast.Key(g) {
			t.Fatalf("group %d keys differ", g)
		}
	}
	// After Reset the cache must not leak stale ids.
	fast.Reset()
	again := fast.MapBatch(dec, nil)
	for i := range again {
		if again[i] != slowIDs[i] {
			t.Fatalf("post-reset row %d: id %d, want %d", i, again[i], slowIDs[i])
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden frames")

// TestGoldenV1Frame round-trips a checked-in v1 spill frame: old spill files
// must keep decoding byte-for-byte after the codec bump.
func TestGoldenV1Frame(t *testing.T) {
	schema := spillTestSchema(t)
	want := mustBatch(t, schema, spillTestRows(53))
	path := filepath.Join("testdata", "golden_v1_frame.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, EncodeBatch(nil, want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden frame (regenerate with -update-golden): %v", err)
	}
	dec, err := DecodeBatch(schema, raw)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, dec, want)
	// The v1 encoder itself must not drift either: the golden bytes are what
	// EncodeBatch still produces today.
	if !bytes.Equal(raw, EncodeBatch(nil, want)) {
		t.Error("EncodeBatch output drifted from the checked-in v1 golden frame")
	}
}
