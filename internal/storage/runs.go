package storage

// runs.go implements the sorted-run layer of the external merge sort: a
// RunStore accumulates the sorted runs one partition's sort produced (each
// run a ColumnBatch whose rows are already ordered), spills cold runs to a
// temp file through the batch codec when a memory budget is exceeded, and
// streams the k-way merge of all runs through a loser tree. Spilled runs are
// split into fixed-size frames so the merge restores at most one frame per
// run at a time: peak merge memory is bounded by runs × frame, not by the
// partition size.
//
// Stability contract: runs are merged in append order, ties go to the
// lower-numbered run, and rows within a run keep their order. Appending the
// stably-sorted chunks of a partition in input order therefore yields exactly
// the permutation a global stable sort of the partition would produce.

import (
	"fmt"
	"sync"
)

// BatchRowCompare orders row ai of batch a against row bi of batch b. Both
// batches share one schema; the comparison must be a total order consistent
// with the sort the runs were built under.
type BatchRowCompare func(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int

// runFrameRows is the row count of one encoded frame of a spilled run. The
// merge holds at most one decoded frame per run, so smaller frames trade
// decode calls for a lower resident bound during the merge.
const runFrameRows = 1024

// runFrame is one encoded frame of a spilled run in the store's spill file.
type runFrame struct {
	at   spillRange
	rows int
}

// runSlot is one sorted run: resident (batch != nil) or spilled into frames.
type runSlot struct {
	batch  *ColumnBatch
	mem    int64
	rows   int
	frames []runFrame
	cold   bool
}

// RunStore holds the sorted runs of one partition's external sort. Appends
// happen from the sorting task's goroutine; Merge streams the loser-tree
// merge of all runs once appending is done. The store is single-use: Close
// releases the spill file.
type RunStore struct {
	spillFile

	mu     sync.Mutex
	schema *Schema
	budget int64
	runs   []*runSlot
	rows   int

	resident    int64
	maxResident int64
}

// NewRunStore returns an empty run store over schema. budget bounds the
// resident bytes of run data (BatchMemSize estimates); past it the oldest
// runs spill to a temp file in spillDir ("" keeps os.TempDir(); the
// directory must exist). budget <= 0 keeps every run in memory and never
// touches disk.
func NewRunStore(schema *Schema, budget int64, spillDir string) (*RunStore, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: run store needs a schema", ErrEmptySchema)
	}
	return &RunStore{spillFile: spillFile{dir: spillDir}, schema: schema, budget: budget}, nil
}

// Runs returns the number of sorted runs appended so far.
func (s *RunStore) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Rows returns the total rows across all runs.
func (s *RunStore) Rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// MaxResidentBytes returns the high-water mark of the store's resident run
// bytes — runs awaiting their merge plus the frames the merge held decoded.
func (s *RunStore) MaxResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxResident
}

// AppendRun seals b — whose rows must already be sorted — as the next run.
// The batch must not be mutated afterwards. Under budget pressure the oldest
// resident runs (possibly b itself) are spilled into frames before AppendRun
// returns.
func (s *RunStore) AppendRun(b *ColumnBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &runSlot{batch: b, mem: BatchMemSize(b), rows: b.Len()}
	s.runs = append(s.runs, slot)
	s.rows += slot.rows
	s.noteResidentLocked(slot.mem)
	if s.budget > 0 {
		for _, r := range s.runs {
			if s.resident <= s.budget {
				break
			}
			if !r.cold {
				if err := s.spillRunLocked(r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// noteResidentLocked adjusts the resident total and tracks its high water.
// Caller holds s.mu.
func (s *RunStore) noteResidentLocked(delta int64) {
	s.resident += delta
	if s.resident > s.maxResident {
		s.maxResident = s.resident
	}
}

// spillRunLocked encodes one resident run into runFrameRows-sized frames and
// releases its memory. Caller holds s.mu.
func (s *RunStore) spillRunLocked(slot *runSlot) error {
	for off := 0; off < slot.rows; off += runFrameRows {
		end := off + runFrameRows
		if end > slot.rows {
			end = slot.rows
		}
		frame := slot.batch
		if off > 0 || end < slot.rows {
			// Only multi-frame runs pay a gather into the frame window; a run
			// that fits one frame encodes its batch directly.
			frame = NewColumnBatch(s.schema, end-off)
			for i := off; i < end; i++ {
				frame.AppendRowFrom(slot.batch, i)
			}
		}
		at, err := s.write(frame)
		if err != nil {
			return err
		}
		slot.frames = append(slot.frames, runFrame{at: at, rows: end - off})
	}
	slot.cold = true
	slot.batch = nil
	s.resident -= slot.mem
	return nil
}

// restoreFrame decodes one spilled frame and accounts its resident bytes
// until releaseFrame is called.
func (s *RunStore) restoreFrame(f runFrame) (*ColumnBatch, int64, error) {
	b, err := s.read(s.schema, f.at)
	if err != nil {
		return nil, 0, err
	}
	mem := BatchMemSize(b)
	s.mu.Lock()
	s.noteResidentLocked(mem)
	s.mu.Unlock()
	return b, mem, nil
}

// releaseFrame returns a restored frame's bytes to the accounting.
func (s *RunStore) releaseFrame(mem int64) {
	s.mu.Lock()
	s.resident -= mem
	s.mu.Unlock()
}

// releaseRun drops a fully-merged resident run.
func (s *RunStore) releaseRun(slot *runSlot) {
	s.mu.Lock()
	if !slot.cold && slot.batch != nil {
		slot.batch = nil
		s.resident -= slot.mem
	}
	s.mu.Unlock()
}

// runCursor streams one run during the merge: a resident run iterates its
// batch in place; a spilled run decodes one frame at a time.
type runCursor struct {
	s    *RunStore
	slot *runSlot
	// batch/row is the current head of the run.
	batch *ColumnBatch
	row   int
	// next is the index of the next frame to restore (cold runs only).
	next     int
	frameMem int64
	done     bool
}

func (c *runCursor) init() error {
	if c.slot.rows == 0 {
		c.done = true
		return nil
	}
	if !c.slot.cold {
		c.batch = c.slot.batch
		return nil
	}
	return c.loadFrame()
}

func (c *runCursor) loadFrame() error {
	if c.frameMem > 0 {
		c.s.releaseFrame(c.frameMem)
		c.frameMem = 0
	}
	if c.next >= len(c.slot.frames) {
		c.done = true
		c.batch = nil
		return nil
	}
	b, mem, err := c.s.restoreFrame(c.slot.frames[c.next])
	if err != nil {
		return err
	}
	c.batch, c.frameMem, c.row = b, mem, 0
	c.next++
	return nil
}

// advance moves the cursor past its current row.
func (c *runCursor) advance() error {
	c.row++
	if c.row < c.batch.Len() {
		return nil
	}
	if c.slot.cold {
		return c.loadFrame()
	}
	c.done = true
	c.batch = nil
	c.s.releaseRun(c.slot)
	return nil
}

// close releases whatever the cursor still holds (early merge abort).
func (c *runCursor) close() {
	if c.frameMem > 0 {
		c.s.releaseFrame(c.frameMem)
		c.frameMem = 0
	}
}

// loserTree is a tournament tree over k run cursors: node[0] holds the
// current overall winner, node[1..k-1] hold the losers of the internal
// matches. After the winner advances, one replay along its leaf-to-root path
// restores the invariant in O(log k) comparisons.
type loserTree struct {
	k       int
	node    []int
	cursors []*runCursor
	cmp     BatchRowCompare
}

func newLoserTree(cursors []*runCursor, cmp BatchRowCompare) *loserTree {
	k := len(cursors)
	t := &loserTree{k: k, node: make([]int, k), cursors: cursors, cmp: cmp}
	for i := range t.node {
		t.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		t.replay(i)
	}
	return t
}

// beats reports whether cursor a's head row is emitted before cursor b's:
// exhausted cursors lose to live ones, and ties go to the lower run index,
// which is what makes the merge stable.
func (t *loserTree) beats(a, b int) bool {
	ca, cb := t.cursors[a], t.cursors[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	if c := t.cmp(ca.batch, ca.row, cb.batch, cb.row); c != 0 {
		return c < 0
	}
	return a < b
}

// replay re-plays leaf i's matches up to the root: at each internal node the
// arriving contestant plays the parked loser, the loser stays, the winner
// continues up. During the initial build the first contestant to reach an
// empty node parks there and stops — its match is played when the sibling
// subtree's winner comes through — which fills all k-1 internal nodes after
// the k build replays and leaves the overall winner at node[0].
func (t *loserTree) replay(i int) {
	winner := i
	for n := (i + t.k) / 2; n >= 1; n /= 2 {
		if t.node[n] < 0 {
			t.node[n] = winner
			return
		}
		if t.beats(t.node[n], winner) {
			t.node[n], winner = winner, t.node[n]
		}
	}
	t.node[0] = winner
}

// Merge streams the k-way merge of every run in sorted order, emitting output
// batches of at most outRows rows. The merge is stable across runs (ties go
// to the earlier run) and within runs (rows keep their order). The store must
// not be appended to afterwards.
func (s *RunStore) Merge(cmp BatchRowCompare, outRows int, emit func(*ColumnBatch) error) error {
	s.mu.Lock()
	runs := s.runs
	remaining := s.rows
	s.mu.Unlock()
	if remaining == 0 {
		return nil
	}
	if outRows < 1 {
		outRows = remaining
	}
	cursors := make([]*runCursor, len(runs))
	for i, slot := range runs {
		cursors[i] = &runCursor{s: s, slot: slot}
		if err := cursors[i].init(); err != nil {
			return err
		}
	}
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	lt := newLoserTree(cursors, cmp)
	newOut := func() *ColumnBatch {
		n := outRows
		if remaining < n {
			n = remaining
		}
		return NewColumnBatch(s.schema, n)
	}
	out := newOut()
	for remaining > 0 {
		w := lt.node[0]
		c := cursors[w]
		if c.done {
			return fmt.Errorf("storage: run merge exhausted with %d rows remaining", remaining)
		}
		out.AppendRowFrom(c.batch, c.row)
		remaining--
		if err := c.advance(); err != nil {
			return err
		}
		lt.replay(w)
		if out.Len() >= outRows || remaining == 0 {
			if err := emit(out); err != nil {
				return err
			}
			out = newOut()
		}
	}
	return nil
}
