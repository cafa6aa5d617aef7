package storage

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Table is an in-memory, schema-validated collection of rows organised into a
// fixed number of hash partitions, each stored as one columnar batch. Tables
// are safe for concurrent appends and reads. Batches hands out snapshots that
// later appends never change, so the dataflow engine reads a table's typed
// vectors without copying them; Partition, Rows and Scan box rows on demand.
type Table struct {
	name       string
	schema     *Schema
	partitions int
	keyField   string // field used for hash partitioning; "" = round robin
	keyIdx     int

	mu     sync.RWMutex
	blocks []*ColumnBatch
	nextRR int // next round-robin partition
}

// TableOption configures table construction.
type TableOption func(*Table)

// WithPartitions sets the number of hash partitions (default 4, minimum 1).
func WithPartitions(n int) TableOption {
	return func(t *Table) {
		if n >= 1 {
			t.partitions = n
		}
	}
}

// WithPartitionKey selects the field used to route rows to partitions. Rows
// are hash-partitioned on the field's string representation. When unset, rows
// are distributed round-robin.
func WithPartitionKey(field string) TableOption {
	return func(t *Table) { t.keyField = field }
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema *Schema, opts ...TableOption) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: table name must not be empty")
	}
	if schema == nil || schema.Len() == 0 {
		return nil, ErrEmptySchema
	}
	t := &Table{
		name:       name,
		schema:     schema,
		partitions: 4,
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.keyField != "" {
		if t.keyIdx = schema.IndexOf(t.keyField); t.keyIdx < 0 {
			return nil, fmt.Errorf("%w: partition key %q", ErrUnknownField, t.keyField)
		}
	}
	t.blocks = t.emptyBlocks()
	return t, nil
}

func (t *Table) emptyBlocks() []*ColumnBatch {
	blocks := make([]*ColumnBatch, t.partitions)
	for i := range blocks {
		blocks[i] = NewColumnBatch(t.schema, 0)
	}
	return blocks
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Partitions returns the number of partitions.
func (t *Table) Partitions() int { return t.partitions }

// Append validates and adds a single row. A rejected row leaves the table
// unchanged.
func (t *Table) Append(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.nextRR
	// A row too short to hold the key fails AppendRow's arity check, so it
	// may route anywhere.
	if t.keyField != "" && t.keyIdx < len(r) {
		p = HashPartition(r[t.keyIdx], t.partitions)
	}
	if err := t.blocks[p].AppendRow(r); err != nil {
		return fmt.Errorf("storage: append to %q: %w", t.name, err)
	}
	if t.keyField == "" {
		t.nextRR = (p + 1) % t.partitions
	}
	return nil
}

// AppendAll validates and adds a batch of rows; it stops at the first invalid
// row and reports how many rows were appended.
func (t *Table) AppendAll(rows []Row) (int, error) {
	for i, r := range rows {
		if err := t.Append(r); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// HashPartition maps a value onto one of n partitions using FNV-1a over the
// value's canonical string form.
func HashPartition(v Value, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(AsString(v)))
	return int(h.Sum32() % uint32(n))
}

// NumRows returns the total number of rows across partitions.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.blocks {
		n += b.Len()
	}
	return n
}

// Batches returns one batch per partition holding the table's current rows.
// The batches share the table's column storage but are snapshots: later
// appends never change them. They must be treated as read-only.
func (t *Table) Batches() []*ColumnBatch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*ColumnBatch, len(t.blocks))
	for i, b := range t.blocks {
		out[i] = b.snapshot()
	}
	return out
}

// Partition returns the rows of partition p, boxed into fresh rows the
// caller owns.
func (t *Table) Partition(p int) ([]Row, error) {
	if p < 0 || p >= t.partitions {
		return nil, fmt.Errorf("storage: partition %d out of range [0,%d)", p, t.partitions)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.blocks[p].Rows(), nil
}

// Rows returns every row of the table in partition order, boxed into fresh
// rows the caller owns.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, 64)
	for _, b := range t.blocks {
		out = append(out, b.Rows()...)
	}
	return out
}

// Scan invokes fn for every row, boxed on demand, until fn returns false or
// rows are exhausted.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.blocks {
		for i := 0; i < b.Len(); i++ {
			if !fn(b.Row(i)) {
				return
			}
		}
	}
}

// Clear removes every row while keeping schema and partitioning.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blocks = t.emptyBlocks()
	t.nextRR = 0
}

// Repartition returns a new table with the same schema and rows distributed
// over n partitions keyed by keyField (or round-robin when keyField is empty).
func (t *Table) Repartition(n int, keyField string) (*Table, error) {
	opts := []TableOption{WithPartitions(n)}
	if keyField != "" {
		opts = append(opts, WithPartitionKey(keyField))
	}
	out, err := NewTable(t.name, t.schema, opts...)
	if err != nil {
		return nil, err
	}
	for _, r := range t.Rows() {
		if err := out.Append(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Catalog is a registry of named tables, mirroring the data-source registry of
// the TOREADOR platform.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds a table to the catalog. Registering a name twice is an error.
func (c *Catalog) Register(t *Table) error {
	if t == nil {
		return fmt.Errorf("storage: cannot register nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name()]; exists {
		return fmt.Errorf("storage: table %q already registered", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Replace registers or overwrites a table.
func (c *Catalog) Replace(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name()] = t
}

// Lookup returns the named table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q not found", name)
	}
	return t, nil
}

// Names returns the registered table names (unordered).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// Drop removes the named table; dropping an absent table is a no-op.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, name)
}
