package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro"
)

// driver submits transactions to one engine session from a single
// goroutine and records every completion exactly. Each outstanding
// transaction owns a slot whose completion callback is bound once, so
// the drivers allocate nothing per transaction; a completed slot comes
// back over freed, and the submitting goroutine alone reads it and
// appends its latency, so recording needs no lock.
//
// Unlike repro.RunClosedLoop and repro.RunOpenLoop, the drivers take
// their random source from the workload seed and keep every latency
// sample instead of a log₂ histogram, whose upper-edge percentiles can
// only move in 2× steps.
type driver struct {
	epoch time.Time
	slots []slot
	freed chan int32

	lat  []int64 // latency of each committed completion, ns
	ends []int64 // completion time of each lat entry, ns since epoch
	lag  []int64 // open loop: how late each submission left, ns

	submitted, committed, readOnly uint64
	attempts                       uint64 // traced: Logic calls of committed transactions
	first, last                    int64  // first submission, last completion

	// tr, when set, turns on tracing: every transaction's Logic and Ctx
	// are wrapped (to count attempts), and one in sampleEvery records a
	// span tree.
	tr          *tracer
	sampleEvery uint64
}

// slot is one outstanding transaction.
type slot struct {
	d         *driver
	idx       int32
	busy      bool
	readOnly  bool
	committed bool
	start     int64 // Submit (closed loop) or scheduled arrival (open loop)
	end       int64
	done      func(bool)

	// traced runs only
	t          *repro.Txn
	origLogic  func(repro.Ctx) error
	origReplan func(*repro.Txn)
	logicFn    func(repro.Ctx) error
	replanFn   func(*repro.Txn)
	ctx        tracedCtx
	attempts   int
	id         uint32 // sampled transaction id, 0 when not sampled
	txnSpan    int32
	logicSpan  int32
}

func newDriver(slots, expected int, tr *tracer, sampleEvery uint64) *driver {
	d := &driver{
		epoch:       time.Now(),
		slots:       make([]slot, slots),
		freed:       make(chan int32, slots), // every slot can be free at once
		lat:         make([]int64, 0, expected),
		ends:        make([]int64, 0, expected),
		tr:          tr,
		sampleEvery: sampleEvery,
	}
	if tr != nil {
		d.epoch = tr.epoch // span times and latencies share one clock
	}
	for i := range d.slots {
		s := &d.slots[i]
		s.d, s.idx = d, int32(i)
		s.done = s.complete
		s.logicFn = s.logic
		s.replanFn = s.replan
		s.ctx.s = s
		d.freed <- int32(i)
	}
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// take returns a free slot, spinning briefly before parking: a
// completion is usually microseconds away, and parking on every one
// would cost a scheduler round trip per transaction.
func (d *driver) take() int32 {
	for spin := 0; spin < 16; spin++ {
		select {
		case i := <-d.freed:
			return i
		default:
			runtime.Gosched()
		}
	}
	return <-d.freed
}

// collect records the outcome of the transaction slot i last carried.
func (d *driver) collect(i int32) {
	s := &d.slots[i]
	if !s.busy {
		return
	}
	s.busy = false
	if s.committed {
		d.committed++
		if s.readOnly {
			d.readOnly++
		}
		d.lat = append(d.lat, s.end-s.start)
		d.ends = append(d.ends, s.end)
		d.attempts += uint64(s.attempts)
	}
	d.last = max(d.last, s.end)
}

// next draws the next transaction, timing it when sampled.
func (d *driver) next(src repro.Source, rng *rand.Rand) (*repro.Txn, uint32) {
	var id uint32
	if d.tr != nil && (d.submitted+1)%d.sampleEvery == 0 {
		id = uint32(d.submitted + 1)
	}
	sp := int32(-1)
	if id != 0 {
		sp = d.tr.begin(spNext, id, -1)
	}
	t := src.Next(0, rng)
	d.tr.end(sp)
	return t, id
}

// submit hands t to the session in slot i; start is the instant its
// latency is measured from.
func (d *driver) submit(ses repro.Session, t *repro.Txn, id uint32, i int32, start int64) {
	s := &d.slots[i]
	s.busy, s.readOnly, s.start = true, t.ReadOnly, start
	if d.submitted == 0 {
		d.first = d.now()
	}
	d.submitted++
	if d.tr == nil {
		ses.Submit(t, s.done)
		return
	}
	s.t, s.id, s.attempts = t, id, 0
	s.origLogic, s.origReplan = t.Logic, t.Replan
	t.Logic = s.logicFn
	if t.Replan != nil {
		t.Replan = s.replanFn
	}
	s.txnSpan, s.logicSpan = -1, -1
	if id != 0 {
		s.txnSpan = d.tr.begin(spTxn, id, -1)
	}
	sub := int32(-1)
	if id != 0 {
		sub = d.tr.begin(spSubmit, id, s.txnSpan)
	}
	ses.Submit(t, s.done)
	d.tr.end(sub)
}

// complete is the slot's completion callback, run on an engine thread.
// A traced transaction gets its own Logic and Replan back before the
// engine recycles it.
func (s *slot) complete(committed bool) {
	s.end = s.d.now()
	s.committed = committed
	if t := s.t; t != nil {
		t.Logic, t.Replan = s.origLogic, s.origReplan
		s.t, s.origLogic, s.origReplan = nil, nil, nil
		s.d.tr.end(s.txnSpan)
	}
	s.d.freed <- s.idx
}

// logic wraps one attempt of the transaction body.
func (s *slot) logic(ctx repro.Ctx) error {
	s.attempts++
	if s.id == 0 {
		s.ctx.inner = ctx
		return s.origLogic(&s.ctx)
	}
	s.logicSpan = s.d.tr.begin(spLogic, s.id, s.txnSpan)
	s.ctx.inner = ctx
	err := s.origLogic(&s.ctx)
	s.d.tr.end(s.logicSpan)
	return err
}

// replan runs the transaction's OLLP re-estimate with its own Logic in
// place, then re-wraps whatever Logic the re-estimate left.
func (s *slot) replan(t *repro.Txn) {
	t.Logic = s.origLogic
	s.origReplan(t)
	s.origLogic = t.Logic
	t.Logic = s.logicFn
}

// child opens a ctx.* span under the current attempt when sampled.
func (s *slot) child(name uint8) int32 {
	if s.id == 0 {
		return -1
	}
	return s.d.tr.begin(name, s.id, s.logicSpan)
}

// closed keeps every slot's transaction outstanding: each completion is
// replaced by a new submission until dur has passed (dur > 0) or count
// transactions were submitted (count > 0), then waits for the rest.
func (d *driver) closed(ses repro.Session, src repro.Source, rng *rand.Rand, dur time.Duration, count uint64) {
	deadline := d.now() + int64(dur)
	for {
		i := d.take()
		d.collect(i)
		if (count > 0 && d.submitted >= count) || (dur > 0 && d.now() >= deadline) {
			break
		}
		t, id := d.next(src, rng)
		d.submit(ses, t, id, i, d.now())
	}
	for n := 1; n < len(d.slots); n++ {
		d.collect(d.take())
	}
	d.freeAll()
}

// freeAll returns every slot to freed once all are idle and collected,
// ready for the next call.
func (d *driver) freeAll() {
	for j := range d.slots {
		d.freed <- int32(j)
	}
}

// open submits Poisson arrivals at rate per second for dur. Each
// transaction is generated during the gap before its arrival and timed
// from its scheduled arrival, so a stall is charged to every request it
// delays; lag records how late each submission actually left.
func (d *driver) open(ses repro.Session, src repro.Source, rng *rand.Rand, rate float64, dur time.Duration) {
	start := d.now()
	at := start
	for {
		at += int64(rng.ExpFloat64() / rate * float64(time.Second))
		if at-start >= int64(dur) {
			break
		}
		t, id := d.next(src, rng)
		d.waitUntil(at)
		i := d.take()
		d.collect(i)
		d.lag = append(d.lag, max(d.now()-at, 0))
		d.submit(ses, t, id, i, at)
	}
	ses.Drain() // every completion callback has returned its slot
	for range d.slots {
		d.collect(<-d.freed)
	}
	d.freeAll()
}

// waitUntil sleeps coarsely, then yields until the clock reaches t: OS
// timers cannot hit the microsecond gaps between arrivals.
func (d *driver) waitUntil(t int64) {
	if gap := t - d.now(); gap > int64(time.Millisecond) {
		time.Sleep(time.Duration(gap) - 500*time.Microsecond)
	}
	for d.now() < t {
		runtime.Gosched()
	}
}

// reset readies the driver for another session: counters and samples
// are cleared, slots and buffers are kept, so a phase's sessions do not
// allocate afresh and add garbage-collector work to the measurement.
func (d *driver) reset() {
	d.lat, d.ends, d.lag = d.lat[:0], d.ends[:0], d.lag[:0]
	d.submitted, d.committed, d.readOnly, d.attempts = 0, 0, 0, 0
	d.first, d.last = 0, 0
}
