package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/store"
)

// timingRunner is the service.Runner the traced run hands the service: it
// records one runner.run span per attempt, the service.queue span from
// submission to the first attempt, and a store.save span for the part of an
// attempt after the runner's wall clock stopped (the result-table save).
type timingRunner struct {
	next  *runner.Runner
	tr    *tracer
	saves bool
}

var _ service.Runner = (*timingRunner)(nil)

func (r *timingRunner) Run(ctx context.Context, c *model.Campaign, alt core.Alternative) (*runner.Report, error) {
	b, first, ok := r.tr.attempt(c)
	if !ok {
		return r.next.Run(ctx, c, alt)
	}
	start := time.Now()
	if first {
		r.tr.child(b.parent, b.op, "service.queue", b.submitted, start)
	}
	rep, err := r.next.Run(ctx, c, alt)
	end := time.Now()
	id := r.tr.child(b.parent, b.op, "runner.run", start, end)
	if err == nil && r.saves {
		r.tr.child(id, b.op, "store.save", start.Add(rep.WallTime), end)
	}
	return rep, err
}

// countingFS is the store.FS the traced run opens the store over: it counts
// fsyncs (file Sync and SyncDir) and the time spent in them, bytes written,
// and bytes read with the time spent reading.
type countingFS struct {
	store.FS
	syncs, syncNanos, written, read, readNanos atomic.Int64
}

func (f *countingFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Append(name string) (store.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Open(name string) (store.ReadFile, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingReadFile{ReadFile: file, fs: f}, nil
}

func (f *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.syncNanos.Add(int64(time.Since(t0)))
	f.syncs.Add(1)
	return err
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	syncs, syncNanos, written, read, readNanos int64
}

func (f *countingFS) snapshot() fsCounts {
	return fsCounts{f.syncs.Load(), f.syncNanos.Load(), f.written.Load(), f.read.Load(), f.readNanos.Load()}
}

func (c fsCounts) minus(o fsCounts) fsCounts {
	return fsCounts{c.syncs - o.syncs, c.syncNanos - o.syncNanos, c.written - o.written, c.read - o.read, c.readNanos - o.readNanos}
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNanos.Add(int64(time.Since(t0)))
	f.fs.syncs.Add(1)
	return err
}

type countingReadFile struct {
	store.ReadFile
	fs *countingFS
}

func (f *countingReadFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.ReadFile.ReadAt(p, off)
	f.fs.readNanos.Add(int64(time.Since(t0)))
	f.fs.read.Add(int64(n))
	return n, err
}
