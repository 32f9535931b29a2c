package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/wal"
)

// Span names. Per-transaction spans (source.next … ctx.scan) are recorded
// for one transaction in sampleEvery; the durability spans (wal.*, ckpt*,
// recover) for every call.
const (
	spNext uint8 = iota
	spSubmit
	spTxn
	spLogic
	spRead
	spWrite
	spInsert
	spScan
	spWalWrite
	spWalSync
	spCkpt
	spCkptPage
	spCkptCommit
	spRecover
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"source.next", "submit", "txn", "logic",
	"ctx.read", "ctx.write", "ctx.insert", "ctx.scan",
	"wal.write", "wal.sync", "ckpt", "ckpt.page", "ckpt.commit", "recover",
}

// span is one timed interval. Spans of one sampled transaction share txn;
// parent is the index of the span that caused this one (-1 for a root).
// A sampled transaction has two roots: source.next (generation) and txn
// (Submit to completion), whose children are submit and one logic span
// per attempt, whose children are the ctx.* calls.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	txn        uint32 // 0 for spans outside any transaction
	name       uint8
}

// tracer records spans into memory allocated up front. Recording is one
// atomic add plus two clock reads; spans beyond capacity are counted as
// dropped rather than allocated. A nil *tracer records nothing.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a span and returns its index, or -1 when tracing is off or
// the buffer is full.
func (tr *tracer) begin(name uint8, txn uint32, parent int32) int32 {
	if tr == nil {
		return -1
	}
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.dropped.Add(1)
		return -1
	}
	tr.spans[i] = span{start: tr.now(), parent: parent, txn: txn, name: name}
	return int32(i)
}

// end closes span i; a no-op for i < 0.
func (tr *tracer) end(i int32) {
	if i >= 0 {
		tr.spans[i].end = tr.now()
	}
}

// recorded returns the spans recorded so far. Call it only after every
// goroutine that records has been stopped.
func (tr *tracer) recorded() []span {
	if tr == nil {
		return nil
	}
	n := tr.next.Load()
	if n > int64(len(tr.spans)) {
		n = int64(len(tr.spans))
	}
	return tr.spans[:n]
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
// A span whose end was never recorded contributes 0.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make([]int32, 0, len(spans))
	for i, s := range spans {
		self[i] = max(s.end-s.start, 0)
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids = append(kids, int32(i))
		}
	}
	// Group children by parent, each group in start order, then subtract
	// the union of each group's intervals clipped to the parent.
	slices.SortFunc(kids, func(a, b int32) int {
		if c := cmp.Compare(spans[a].parent, spans[b].parent); c != 0 {
			return c
		}
		return cmp.Compare(spans[a].start, spans[b].start)
	})
	for g := 0; g < len(kids); {
		pi := spans[kids[g]].parent
		p := spans[pi]
		var covered, reach int64 = 0, p.start
		for ; g < len(kids) && spans[kids[g]].parent == pi; g++ {
			c := spans[kids[g]]
			lo, hi := max(c.start, reach), min(c.end, p.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[pi] = max(self[pi]-covered, 0)
	}
	return self
}

// layerStats summarizes one tracer's spans: count, mean duration and mean
// self time per span name.
type layerStats struct {
	count  [numSpanNames]int
	meanNs [numSpanNames]float64
	selfNs [numSpanNames]float64
}

func summarize(tr *tracer) layerStats {
	var ls layerStats
	if tr == nil {
		return ls
	}
	spans := tr.recorded()
	self := selfTimes(spans)
	var dur, own [numSpanNames]int64
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		ls.count[s.name]++
		dur[s.name] += s.end - s.start
		own[s.name] += self[i]
	}
	for n := range ls.count {
		ls.meanNs[n] = ratio(float64(dur[n]), float64(ls.count[n]))
		ls.selfNs[n] = ratio(float64(own[n]), float64(ls.count[n]))
	}
	return ls
}

// writeSpans writes every recorded span of each phase tracer as one
// tab-separated line: phase, transaction id, span id, name, parent id,
// start and end (ns since the phase tracer's epoch) and self time.
func writeSpans(path string, phases []string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase\ttxn\tspan\tname\tparent\tstart_ns\tend_ns\tself_ns")
	for k, tr := range tracers {
		spans := tr.recorded()
		self := selfTimes(spans)
		for i, s := range spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
				phases[k], s.txn, i, spanNames[s.name], s.parent, s.start, s.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCtx wraps the engine's txn.Ctx for one slot, recording a ctx.*
// span per call when the slot's transaction is sampled.
type tracedCtx struct {
	inner repro.Ctx
	s     *slot
}

func (c *tracedCtx) Read(table int, key uint64) ([]byte, error) {
	i := c.s.child(spRead)
	rec, err := c.inner.Read(table, key)
	c.s.d.tr.end(i)
	return rec, err
}

func (c *tracedCtx) Write(table int, key uint64) ([]byte, error) {
	i := c.s.child(spWrite)
	rec, err := c.inner.Write(table, key)
	c.s.d.tr.end(i)
	return rec, err
}

func (c *tracedCtx) Insert(table int, key uint64, value []byte) error {
	i := c.s.child(spInsert)
	err := c.inner.Insert(table, key, value)
	c.s.d.tr.end(i)
	return err
}

func (c *tracedCtx) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	i := c.s.child(spScan)
	err := c.inner.Scan(table, lo, hi, fn)
	c.s.d.tr.end(i)
	return err
}

// tracedDevice wraps a segmented WAL device, recording wal.write and
// wal.sync spans. It forwards Mark and Truncate as well: wal.NewLog
// type-asserts its device to wal.SegmentDevice, so a wrapper of only
// Write/Sync/Close would silently turn off segment rotation and
// checkpoint truncation and the traced run would measure another program.
type tracedDevice struct {
	dev repro.WALSegmentDevice
	tr  *tracer
}

func (d *tracedDevice) Write(p []byte) (int, error) {
	i := d.tr.begin(spWalWrite, 0, -1)
	n, err := d.dev.Write(p)
	d.tr.end(i)
	return n, err
}

func (d *tracedDevice) Sync() error {
	i := d.tr.begin(spWalSync, 0, -1)
	err := d.dev.Sync()
	d.tr.end(i)
	return err
}

func (d *tracedDevice) Close() error                 { return d.dev.Close() }
func (d *tracedDevice) Mark(maxLSN uint64)           { d.dev.Mark(maxLSN) }
func (d *tracedDevice) Truncate(belowLSN uint64) int { return d.dev.Truncate(belowLSN) }

// tracedStore wraps a checkpoint store, recording one ckpt span per
// checkpoint with ckpt.page and ckpt.commit children. Load passes
// through unchanged, and Begin returns the inner writer's behaviour.
type tracedStore struct {
	store repro.CheckpointStore
	tr    *tracer
}

func (s *tracedStore) Begin() (wal.CheckpointWriter, error) {
	w, err := s.store.Begin()
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, tr: s.tr, span: s.tr.begin(spCkpt, 0, -1)}, nil
}

func (s *tracedStore) Load() (*wal.Checkpoint, error) { return s.store.Load() }

type tracedWriter struct {
	w    wal.CheckpointWriter
	tr   *tracer
	span int32
}

func (w *tracedWriter) Page(p []byte) error {
	i := w.tr.begin(spCkptPage, 0, w.span)
	err := w.w.Page(p)
	w.tr.end(i)
	return err
}

func (w *tracedWriter) Commit(m *wal.Manifest) error {
	i := w.tr.begin(spCkptCommit, 0, w.span)
	err := w.w.Commit(m)
	w.tr.end(i)
	w.tr.end(w.span)
	return err
}

func (w *tracedWriter) Abort() {
	w.w.Abort()
	w.tr.end(w.span)
}
