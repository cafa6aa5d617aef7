package storage

import (
	"os"
	"path/filepath"
	"testing"
)

func spillDirSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "k", Type: TypeInt},
		Field{Name: "v", Type: TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func spillDirBatch(t *testing.T, schema *Schema, n, base int) *ColumnBatch {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(base + i), "payload-payload-payload"}
	}
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPartitionStoreSpillDir(t *testing.T) {
	dir := t.TempDir()
	schema := spillDirSchema(t)
	// A 1-byte budget forces every append to spill immediately.
	ps, err := NewPartitionStore(schema, 2, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Append(0, spillDirBatch(t, schema, 100, 0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if ps.SpilledBatches() == 0 {
		t.Fatal("budget=1 append did not spill")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if m, _ := filepath.Match(spillFilePattern, e.Name()); m {
			found = true
		}
	}
	if !found {
		t.Fatalf("spill file not placed in the configured spill directory; entries=%v", entries)
	}
	// Spilled data must read back through the configured directory.
	got, err := ps.FlattenPartition(0)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	if got.Len() != 100 {
		t.Fatalf("read back %d rows, want 100", got.Len())
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close removes the spill file and is idempotent.
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("spill file not removed on close: %v", entries)
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// A post-close append that needs to spill must fail, not resurrect the
	// temp file.
	if err := ps.Append(0, spillDirBatch(t, schema, 10, 0)); err == nil {
		t.Fatal("append after close silently spilled")
	}
}

func TestRunStoreSpillDir(t *testing.T) {
	dir := t.TempDir()
	schema := spillDirSchema(t)
	rs, err := NewRunStore(schema, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.AppendRun(spillDirBatch(t, schema, 100, 0)); err != nil {
		t.Fatalf("append run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if m, _ := filepath.Match(spillFilePattern, e.Name()); m {
			found = true
		}
	}
	if !found {
		t.Fatalf("run spill file not placed in the configured spill directory; entries=%v", entries)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("run spill file not removed on close: %v", entries)
	}
}
