package storage

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newPeopleTable(t *testing.T, opts ...TableOption) *Table {
	t.Helper()
	tbl, err := NewTable("people", testSchema(t), opts...)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", testSchema(t)); err == nil {
		t.Error("empty table name must fail")
	}
	if _, err := NewTable("x", nil); err == nil {
		t.Error("nil schema must fail")
	}
	if _, err := NewTable("x", testSchema(t), WithPartitionKey("missing")); err == nil {
		t.Error("unknown partition key must fail")
	}
}

func TestTableAppendAndScan(t *testing.T) {
	tbl := newPeopleTable(t)
	rows := []Row{
		{int64(1), "alice", 10.0, true, int64(1000)},
		{int64(2), "bob", 20.0, nil, int64(2000)},
		{int64(3), "carol", 30.0, false, int64(3000)},
	}
	n, err := tbl.AppendAll(rows)
	if err != nil || n != 3 {
		t.Fatalf("AppendAll = %d, %v", n, err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tbl.NumRows())
	}
	seen := 0
	tbl.Scan(func(r Row) bool { seen++; return true })
	if seen != 3 {
		t.Errorf("Scan visited %d rows, want 3", seen)
	}
	seen = 0
	tbl.Scan(func(r Row) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("Scan with early stop visited %d rows, want 1", seen)
	}
}

func TestTableAppendRejectsBadRows(t *testing.T) {
	tbl := newPeopleTable(t)
	n, err := tbl.AppendAll([]Row{
		{int64(1), "alice", 10.0, true, int64(1000)},
		{"bad", "bob", 20.0, nil, int64(2000)},
	})
	if err == nil {
		t.Fatal("AppendAll must fail on the invalid row")
	}
	if n != 1 || tbl.NumRows() != 1 {
		t.Errorf("appended = %d rows (table has %d), want 1", n, tbl.NumRows())
	}
}

// TestTableRejectedAppendLeavesPartitionsUnchanged appends rows that fail
// validation at different columns — after a null has already been written to
// an earlier column, and too short to hold the partition key — and checks
// that no partition changed, round-robin routing did not advance, and the
// next valid row's null bits are its own.
func TestTableRejectedAppendLeavesPartitionsUnchanged(t *testing.T) {
	for _, opts := range [][]TableOption{
		{WithPartitions(3)},
		{WithPartitions(3), WithPartitionKey("name")},
	} {
		tbl := newPeopleTable(t, opts...)
		good := []Row{
			{int64(1), "alice", 10.0, nil, int64(1000)},
			{int64(2), "bob", 20.0, true, int64(2000)},
		}
		if _, err := tbl.AppendAll(good); err != nil {
			t.Fatal(err)
		}
		partitions := func() [][]Row {
			out := make([][]Row, tbl.Partitions())
			for p := range out {
				rows, err := tbl.Partition(p)
				if err != nil {
					t.Fatal(err)
				}
				out[p] = rows
			}
			return out
		}
		before := partitions()
		for _, bad := range []Row{
			{int64(3), "carol", 30.0, nil, "not a time"},
			{int64(4), "dave", nil, false, int64(4000)},
			{int64(5)},
			{int64(6), "erin", 60.0, true, int64(6000), "extra"},
		} {
			if err := tbl.Append(bad); err == nil {
				t.Fatalf("Append(%v) accepted an invalid row", bad)
			}
			if got := partitions(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected Append(%v) changed partitions:\n got %v\nwant %v", bad, got, before)
			}
		}
		next := Row{int64(7), "alice", 70.0, false, int64(7000)}
		if err := tbl.Append(next); err != nil {
			t.Fatal(err)
		}
		want := 2 // round robin resumes after the two good rows
		if len(opts) == 2 {
			want = HashPartition("alice", tbl.Partitions())
		}
		rows, err := tbl.Partition(want)
		if err != nil {
			t.Fatal(err)
		}
		if last := rows[len(rows)-1]; !reflect.DeepEqual(last, next) {
			t.Fatalf("partition %d ends with %v, want %v", want, last, next)
		}
	}
}

// TestTableBatchesSnapshot checks that a Batches snapshot keeps the rows the
// table held when it was taken while later appends (nulls included, which
// share bitmap words with earlier rows) land only in newer snapshots.
func TestTableBatchesSnapshot(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(2))
	var first []Row
	for i := 0; i < 6; i++ {
		r := Row{int64(i), "p", float64(i), true, int64(i)}
		if i%2 == 0 {
			r[3] = nil
		}
		first = append(first, r)
	}
	if _, err := tbl.AppendAll(first); err != nil {
		t.Fatal(err)
	}
	boxed := func(bs []*ColumnBatch) []Row {
		var out []Row
		for _, b := range bs {
			out = append(out, b.Rows()...)
		}
		return out
	}
	snap := tbl.Batches()
	want := boxed(snap)
	if !reflect.DeepEqual(want, tbl.Rows()) {
		t.Fatalf("snapshot %v differs from table rows %v", want, tbl.Rows())
	}
	// The snapshot is read while the appends run, as an engine reads a
	// source while its table keeps growing; -race proves they share no
	// written memory.
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for i := 6; i < 200; i++ {
			if err := tbl.Append(Row{int64(i), "q", float64(i), nil, int64(i)}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if got := boxed(snap); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot changed during appends:\n got %v\nwant %v", got, want)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := boxed(snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot changed after appends:\n got %v\nwant %v", got, want)
	}
	if n := len(boxed(tbl.Batches())); n != 200 {
		t.Fatalf("new snapshot holds %d rows, want 200", n)
	}
}

func TestTableHashPartitioning(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(3), WithPartitionKey("name"))
	names := []string{"alice", "bob", "carol", "alice", "alice", "dave"}
	for i, n := range names {
		if err := tbl.Append(Row{int64(i), n, 1.0, true, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	// All rows with the same key must land in the same partition.
	byName := map[string]int{}
	for p := 0; p < tbl.Partitions(); p++ {
		rows, err := tbl.Partition(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			name := r[1].(string)
			if prev, ok := byName[name]; ok && prev != p {
				t.Errorf("key %q split across partitions %d and %d", name, prev, p)
			}
			byName[name] = p
		}
	}
	if tbl.NumRows() != len(names) {
		t.Errorf("NumRows = %d, want %d", tbl.NumRows(), len(names))
	}
	if _, err := tbl.Partition(99); err == nil {
		t.Error("out-of-range partition must fail")
	}
}

func TestTableRoundRobinSpreadsRows(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(4))
	for i := 0; i < 8; i++ {
		if err := tbl.Append(Row{int64(i), "x", 1.0, true, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 4; p++ {
		rows, _ := tbl.Partition(p)
		if len(rows) != 2 {
			t.Errorf("partition %d has %d rows, want 2", p, len(rows))
		}
	}
}

func TestTableClearAndRepartition(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(2))
	for i := 0; i < 10; i++ {
		_ = tbl.Append(Row{int64(i), "n", 1.0, true, int64(0)})
	}
	re, err := tbl.Repartition(5, "id")
	if err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	if re.Partitions() != 5 || re.NumRows() != 10 {
		t.Errorf("repartitioned: partitions=%d rows=%d", re.Partitions(), re.NumRows())
	}
	tbl.Clear()
	if tbl.NumRows() != 0 {
		t.Errorf("Clear left %d rows", tbl.NumRows())
	}
}

func TestTableConcurrentAppend(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(4), WithPartitionKey("name"))
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = tbl.Append(Row{int64(w*1000 + i), "writer", 1.0, true, int64(0)})
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.NumRows(); got != writers*perWriter {
		t.Fatalf("NumRows = %d, want %d", got, writers*perWriter)
	}
}

func TestHashPartitionProperties(t *testing.T) {
	// Property: HashPartition always returns a value in [0, n) and is
	// deterministic.
	f := func(key string, n uint8) bool {
		parts := int(n%16) + 1
		p1 := HashPartition(key, parts)
		p2 := HashPartition(key, parts)
		return p1 == p2 && p1 >= 0 && p1 < parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if HashPartition("anything", 1) != 0 {
		t.Error("single partition must always map to 0")
	}
	if HashPartition("anything", 0) != 0 {
		t.Error("degenerate partition count must map to 0")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := newPeopleTable(t)
	if err := c.Register(tbl); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(tbl); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := c.Register(nil); err == nil {
		t.Error("nil table registration must fail")
	}
	got, err := c.Lookup("people")
	if err != nil || got != tbl {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := c.Lookup("ghost"); err == nil {
		t.Error("lookup of unknown table must fail")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "people" {
		t.Errorf("Names = %v", names)
	}
	other := newPeopleTable(t)
	c.Replace(other)
	got, _ = c.Lookup("people")
	if got != other {
		t.Error("Replace must overwrite")
	}
	c.Drop("people")
	if _, err := c.Lookup("people"); err == nil {
		t.Error("dropped table must not resolve")
	}
	c.Drop("people") // dropping twice is a no-op
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := newPeopleTable(t)
	rows := []Row{
		{int64(1), "alice", 10.5, true, int64(1000)},
		{int64(2), "bob", 20.25, nil, int64(2000)},
	}
	if _, err := tbl.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "people2", tbl.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("round trip rows = %d, want 2", back.NumRows())
	}
	// Spot-check typed values survived.
	found := false
	back.Scan(func(r Row) bool {
		if r[1] == "alice" {
			found = true
			if r[0] != int64(1) || r[2] != 10.5 || r[3] != true {
				t.Errorf("alice row corrupted: %v", r)
			}
		}
		return true
	})
	if !found {
		t.Error("alice row missing after round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := MustSchema(Field{Name: "id", Type: TypeInt}, Field{Name: "v", Type: TypeFloat, Nullable: true})
	if _, err := ReadCSV(strings.NewReader("v\n1.5\n"), "t", schema); err == nil {
		t.Error("missing required column must fail")
	}
	if _, err := ReadCSV(strings.NewReader("id,v\nnot-int,1.5\n"), "t", schema); err == nil {
		t.Error("bad cell must fail")
	}
	got, err := ReadCSV(strings.NewReader("id,v,extra\n7,,ignored\n"), "t", schema)
	if err != nil {
		t.Fatalf("ReadCSV with empty nullable cell: %v", err)
	}
	r := got.Rows()[0]
	if r[0] != int64(7) || r[1] != nil {
		t.Errorf("row = %v, want [7 <nil>]", r)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tbl := newPeopleTable(t)
	rows := []Row{
		{int64(1), "alice", 10.5, true, int64(1000)},
		{int64(2), "bob", 20.25, nil, int64(2000)},
	}
	if _, err := tbl.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tbl); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf, "people2", tbl.Schema())
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("round trip rows = %d, want 2", back.NumRows())
	}
}

func TestReadJSONErrors(t *testing.T) {
	schema := MustSchema(Field{Name: "id", Type: TypeInt})
	if _, err := ReadJSON(strings.NewReader(`{"id": "abc"}`), "t", schema); err == nil {
		t.Error("unparsable value must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{bad json`), "t", schema); err == nil {
		t.Error("malformed json must fail")
	}
	got, err := ReadJSON(strings.NewReader(`{"id": 3}`+"\n"+`{"id": 4.9}`), "t", schema)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	rows := got.Rows()
	if rows[0][0] != int64(3) || rows[1][0] != int64(4) {
		t.Errorf("rows = %v", rows)
	}
}
