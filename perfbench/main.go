// Command perfbench is the repository's end-to-end benchmark. It builds
// and pre-warms a database for one workload, drives ORTHRUS (closed and
// open loop) and 2PL wait-die (closed loop) through the public
// Runtime/Session API with its own seeded drivers, checks the results
// for correctness, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports per-layer metrics and writes its spans to a file.
// A failed correctness check exits with status 1 and names the check.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload ycsb-hot --seed 1 --seconds 16 --trace 0
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
)

// A run is a series of rounds. Each round builds a fresh instance for
// ORTHRUS and runs one closed-loop and one open-loop session on it, then
// builds one for 2PL and runs one closed-loop session: every phase
// samples the whole run, so a slow stretch of a shared machine lands on
// all of them alike, and no round inherits a database grown by the
// previous ones (TPC-C inserts slow down as the ordered tables grow).
// Engines never share a database: each has its own MVCC commit clock.
const (
	sessionSeconds = 0.5
	// windowNs is the width of the windows each session is cut into:
	// throughput and latency percentiles are computed per window and
	// reported as the median window. A 2-vCPU VM pauses a spinning
	// thread for milliseconds dozens of times a second; a median window
	// moves a little with such a stall, where a pooled percentile or a
	// whole-run rate would jump. For the same reason the tails reported
	// end to end are p90: the top 1% follows the stalls (in the same
	// runs, TPC-C's p99 spread 0.97 across seeds and its p90 0.10). The
	// p99s and the stalls themselves (driver.gen_lag_*) are in the
	// traced run.
	windowNs    = int64(100 * time.Millisecond)
	sampleEvery = 128     // one traced transaction in sampleEvery
	spanCap     = 1 << 19 // spans per tracer
	openSlots   = 1 << 14 // open-loop transactions outstanding at most
	// ckptInterval paces the durable workload's fuzzy checkpoints: short
	// enough that one is in progress during most of every session, so
	// windows with and without checkpoint work do not alternate.
	ckptInterval = 50 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload: ycsb-hot, ycsb-readmostly, tpcc-2wh or transfer-durable")
	seed := flag.Int64("seed", 1, "seed of every random input")
	secs := flag.Float64("seconds", 16, "measured seconds, spread over rounds of timed sessions")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run and writes .bench_build/spans-<workload>-<seed>.tsv")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, secs: *secs, traced: *trace == 1, out: newReport()}
	steal0, total0 := cpuStat()
	err := r.execute()
	steal1, total1 := cpuStat()
	r.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", w.name, err)
		os.Exit(1)
	}
	if r.traced {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.tsv", w.name, *seed)
		if err := writeSpans(path, r.phases, r.tracers); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	r.print()
}

// run is one invocation: every phase of one workload.
type run struct {
	w      *workload
	seed   int64
	secs   float64
	traced bool
	out    *report

	setups            []setupTimes
	attempted, failed uint64

	phases  []string
	tracers []*tracer

	// stealPct is the share of CPU time the hypervisor took from this
	// VM during the run: a shared host's load shows here, not in the
	// engines' counters.
	stealPct float64
}

// rng returns the seeded random source of one input stream.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// tracer returns a new span buffer for a traced run, nil otherwise.
func (r *run) tracer(phase string) *tracer {
	if !r.traced {
		return nil
	}
	tr := newTracer(spanCap)
	r.phases = append(r.phases, phase)
	r.tracers = append(r.tracers, tr)
	return tr
}

// setupTimes is one set-up's cost split.
type setupTimes struct{ load, touch, total time.Duration }

// setup builds a fresh instance and its engine, timing the load, the
// pre-touch and the whole. The previous instance's memory is returned to
// the OS first, so every set-up pays the same page faults.
func (r *run) setup(twopl bool, tr *tracer, ckptEvery time.Duration) (*instance, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	in, err := r.w.build(tr)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pretouch(in.db, in.touch)
	t2 := time.Now()
	in.ckptEvery = ckptEvery
	in.eng = in.newEngine(twopl)
	r.setups = append(r.setups, setupTimes{load: t1.Sub(t0), touch: t2.Sub(t1), total: time.Since(t0)})
	return in, nil
}

// account adds a driver's submissions to the run's totals and its
// committed writes to the instance's.
func (r *run) account(in *instance, d *driver) {
	r.attempted += d.submitted
	r.failed += d.submitted - d.committed // committed=false or never completed
	in.writeCommits += d.committed - d.readOnly
}

// finish releases an instance's log and runs its correctness check.
func finish(in *instance) error {
	if err := in.log.Close(); err != nil {
		return fmt.Errorf("wal-close: %w", err)
	}
	return in.check(in.writeCommits)
}

func (r *run) execute() error {
	// A traced run alternates untraced and traced ORTHRUS closed-loop
	// rounds; the difference is the tracing overhead.
	trWal, trOrthrus, trTwopl := r.tracer("durability"), r.tracer("orthrus-closed"), r.tracer("twopl-closed")
	closed, closedUntraced, open, twopl := &phase{}, &phase{}, &phase{}, &phase{}
	rngWarm, rngClosed, rngOpen, rngTwopl := r.rng(1), r.rng(2), r.rng(3), r.rng(4)
	heapMB, err := r.heap(rngWarm)
	if err != nil {
		return err
	}
	rounds := max(1, int(r.secs/(3*sessionSeconds)+0.5))
	for k := 0; k < rounds; k++ {
		in, err := r.setup(false, trWal, ckptInterval)
		if err != nil {
			return err
		}
		r.warm(in, rngWarm)
		if r.traced && k%2 == 0 {
			r.closedSession(closedUntraced, in, nil, rngClosed)
		} else {
			r.closedSession(closed, in, trOrthrus, rngClosed)
		}
		r.openSession(open, in, rngOpen)
		if err := finish(in); err != nil {
			return err
		}

		if in, err = r.setup(true, trWal, ckptInterval); err != nil {
			return err
		}
		r.warm(in, rngWarm)
		r.closedSession(twopl, in, trTwopl, rngTwopl)
		if err := finish(in); err != nil {
			return err
		}
	}

	var rec recovery
	var trCrash *tracer
	if r.w.durable {
		trCrash = r.tracer("crash-recover")
		var err error
		if rec, err = r.crashRecover(trCrash); err != nil {
			return err
		}
	}

	p50 := func(w window) float64 { return w.p50 }
	p90 := func(w window) float64 { return w.p90 }
	p99 := func(w window) float64 { return w.p99 }
	o := r.out
	if !r.traced {
		o.add("orthrus.tps", closed.tps(), "txn/s", len(closed.windows))
		o.add("orthrus.p50_us", closed.windowed(p50), "us", closed.lat)
		o.add("orthrus.p90_us", closed.windowed(p90), "us", closed.lat)
		o.add("orthrus.ol_p50_us", open.windowed(p50), "us", open.lat)
		o.add("twopl.tps", twopl.tps(), "txn/s", len(twopl.windows))
		o.add("twopl.p90_us", twopl.windowed(p90), "us", twopl.lat)
		o.add("setup_s", r.setupMedian(func(s setupTimes) time.Duration { return s.total }), "s", len(r.setups))
		o.add("heap_mb", heapMB, "MB", 1)
		return nil
	}

	lsC, lsT, lsW, lsR := summarize(trOrthrus), summarize(trTwopl), summarize(trWal), summarize(trCrash)
	tC, tT := closed.totals, twopl.totals
	nC := float64(tC.Committed)
	o.add("orthrus.p99_us", closed.windowed(p99), "us", closed.lat)
	o.add("twopl.p99_us", twopl.windowed(p99), "us", twopl.lat)
	o.add("orthrus.ol_p90_us", open.windowed(p90), "us", open.lat)
	o.add("orthrus.ol_p99_us", open.windowed(p99), "us", open.lat)
	o.add("workload.next_ns", lsC.meanNs[spNext], "ns", lsC.count[spNext])
	o.add("driver.gen_lag_p99_us", median(open.lagP99), "us", open.lag)
	o.add("driver.gen_lag_max_us", median(open.lagMax), "us", open.lag)
	o.add("engine.submit_ns", lsC.meanNs[spSubmit], "ns", lsC.count[spSubmit])
	o.add("txn.attempts_per_commit", ratio(float64(closed.attempts), float64(closed.committed)), "ratio", int(closed.committed))
	o.add("txn.logic_self_us", lsC.selfNs[spLogic]/1e3, "us", lsC.count[spLogic])
	o.add("txn.outside_logic_us", lsC.selfNs[spTxn]/1e3, "us", lsC.count[spTxn])
	o.add("ctx.read_ns", lsC.meanNs[spRead], "ns", lsC.count[spRead])
	o.add("ctx.write_ns", lsC.meanNs[spWrite], "ns", lsC.count[spWrite])
	o.add("ctx.insert_ns", lsC.meanNs[spInsert], "ns", lsC.count[spInsert])
	m := closed.msgs
	o.add("orthrus.msgs_per_commit", ratio(float64(m.TotalMessages()), nC), "count", int(nC))
	o.add("orthrus.forwards_per_commit", ratio(float64(m.Forwards), nC), "count", int(nC))
	o.add("orthrus.msgs_per_enqueue", m.MessagesPerEnqueue(), "count", int(m.EnqueueOps))
	o.add("orthrus.cc_queue_highwater", float64(closed.highWater), "count", closed.sessions)
	exec, lock, wait, logPct := tC.Breakdown()
	o.add("orthrus.exec_pct", exec, "%", closed.sessions)
	o.add("orthrus.lock_pct", lock, "%", closed.sessions)
	o.add("orthrus.wait_pct", wait, "%", closed.sessions)
	o.add("orthrus.log_pct", logPct, "%", closed.sessions)
	o.add("orthrus.misses_per_commit", ratio(float64(tC.Misses), nC), "count", int(nC))
	_, lockT, waitT, _ := tT.Breakdown()
	o.add("twopl.abort_ratio", tT.AbortRate(), "ratio", int(tT.Committed+tT.Aborted))
	o.add("twopl.lock_pct", lockT, "%", twopl.sessions)
	o.add("twopl.wait_pct", waitT, "%", twopl.sessions)
	o.add("twopl.attempts_per_commit", ratio(float64(twopl.attempts), float64(twopl.committed)), "ratio", int(twopl.committed))
	o.add("twopl.ctx_read_ns", lsT.meanNs[spRead], "ns", lsT.count[spRead])
	o.add("twopl.ctx_write_ns", lsT.meanNs[spWrite], "ns", lsT.count[spWrite])
	o.add("snap.share", ratio(float64(tC.SnapTxns), nC), "ratio", int(nC))
	o.add("snap.hops_per_record", ratio(float64(tC.SnapHops), float64(tC.SnapRecords)), "count", int(tC.SnapRecords))
	o.add("snap.installs_per_commit", ratio(float64(tC.Installed), nC), "count", int(nC))
	o.add("snap.stale_lsn", tC.SnapStaleness(), "count", int(tC.SnapTxns))
	w := closed.wal
	o.add("wal.records_per_sync", ratio(float64(w.Records), float64(w.Syncs)), "count", int(w.Syncs))
	o.add("wal.bytes_per_commit", ratio(float64(w.Bytes), float64(closed.committed)), "B", int(closed.committed))
	o.add("wal.write_us", lsW.meanNs[spWalWrite]/1e3, "us", lsW.count[spWalWrite])
	o.add("wal.sync_us", lsW.meanNs[spWalSync]/1e3, "us", lsW.count[spWalSync])
	o.add("wal.syncs_per_s", ratio(float64(w.Syncs), closed.busy), "1/s", int(w.Syncs))
	o.add("ckpt.count", float64(closed.ckpt.Checkpoints), "count", closed.sessions)
	o.add("ckpt.ms", lsW.meanNs[spCkpt]/1e6, "ms", lsW.count[spCkpt])
	o.add("ckpt.bytes", ratio(float64(closed.ckpt.Bytes), float64(closed.ckpt.Checkpoints)), "B", int(closed.ckpt.Checkpoints))
	o.add("ckpt.truncated_segments", float64(rec.truncated), "count", 1)
	o.add("recovery_s", rec.elapsed.Seconds(), "s", lsR.count[spRecover])
	o.add("recovery.restored", float64(rec.stats.RecordsRestored), "count", 1)
	o.add("recovery.applied", float64(rec.stats.Replay.Applied), "count", 1)
	o.add("recovery.krec_per_s", ratio(float64(rec.stats.RecordsRestored+rec.stats.Replay.Applied)/1e3, rec.elapsed.Seconds()), "krec/s", 1)
	o.add("setup.load_s", r.setupMedian(func(s setupTimes) time.Duration { return s.load }), "s", len(r.setups))
	o.add("setup.touch_s", r.setupMedian(func(s setupTimes) time.Duration { return s.touch }), "s", len(r.setups))
	o.add("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", int(r.attempted))
	traced, untraced := closed.tps(), closedUntraced.tps()
	o.add("trace.overhead_pct", 100*ratio(untraced-traced, untraced), "%", closed.sessions+closedUntraced.sessions)
	for i, tr := range r.tracers {
		if n := tr.dropped.Load(); n > 0 {
			fmt.Printf("# %s: %d spans dropped beyond the buffer of %d\n", r.phases[i], n, spanCap)
		}
	}
	return nil
}

func (r *run) setupMedian(part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(r.setups))
	for i, s := range r.setups {
		xs[i] = part(s).Seconds()
	}
	return median(xs)
}

// heap builds and warms an ORTHRUS instance outside the timed rounds
// and returns the live heap in MB with its session closed. Its only
// checkpoints are two forced ones, so the store holds exactly two
// images: with periodic checkpoints the count would depend on timing,
// and wal.MemCheckpointStore keeps a dropped image reachable from its
// slice's backing array for every other checkpoint.
func (r *run) heap(rng *rand.Rand) (float64, error) {
	in, err := r.setup(false, nil, time.Hour)
	if err != nil {
		return 0, err
	}
	r.warm(in, rng)
	if in.log != nil {
		var ckErr error
		r.session(&phase{}, in, in.eng.Clients(), nil, func(_ *driver, ses repro.Session) {
			for i := 0; i < 2 && ckErr == nil; i++ {
				ckErr = repro.ForceCheckpoint(ses)
			}
		})
		if ckErr != nil {
			return 0, fmt.Errorf("checkpoint: %w", ckErr)
		}
	}
	mb := liveHeapMB()
	return mb, finish(in)
}

// liveHeapMB returns the live heap after full collections: the second
// one also frees what the first left in sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
