package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
)

// crashTxns is the size of the crash image. Recovery time is driven by
// commit count, not by time: a time-driven image would grow with engine
// speed, and a time-triggered checkpoint can leave anything from none
// to tens of thousands of records to replay in otherwise identical runs.
const crashTxns = 40_000

// recovery is the outcome of the crash phase.
type recovery struct {
	elapsed   time.Duration
	stats     repro.RecoverStats
	truncated uint64 // log segments the forced checkpoints truncated
}

// crashRecover commits crashTxns transfers on a fresh instance with
// checkpoints forced at fixed commit counts (a quarter and a half: the
// second truncates the log below the first), takes the synced log image
// as the crash, and recovers it onto a fresh database with GOMAXPROCS
// workers. It checks conservation on both databases, that every
// acknowledged commit is at or below the recovered LSN, and that the
// recovered state equals the live one.
func (r *run) crashRecover(tr *tracer) (recovery, error) {
	var rec recovery
	in, err := r.w.build(tr)
	if err != nil {
		return rec, err
	}
	pretouch(in.db, in.touch)
	in.ckptEvery = time.Hour // no checkpoint but the forced ones
	eng := in.newEngine(false)
	d := newDriver(eng.Clients(), crashTxns, nil, sampleEvery)
	rng := r.rng(8)
	ses := eng.Start()
	for _, upTo := range []uint64{crashTxns / 4, crashTxns / 2} {
		d.closed(ses, in.src, rng, 0, upTo)
		if err := repro.ForceCheckpoint(ses); err != nil {
			ses.Close()
			return rec, fmt.Errorf("checkpoint: %w", err)
		}
	}
	d.closed(ses, in.src, rng, 0, crashTxns)
	ses.Drain()
	durable := in.log.DurableLSN()
	image := in.dev.CrashSegments()
	rec.truncated = ses.(repro.CheckpointedSession).CheckpointStats().TruncatedSegments
	ses.Close()
	r.account(in, d)
	if err := finish(in); err != nil {
		return rec, err
	}
	if durable < d.committed {
		return rec, fmt.Errorf("wal-acked-lsn: %d commits acknowledged but durable LSN is %d", d.committed, durable)
	}

	base := repro.NewDB()
	tbl := newAccounts(base)
	runtime.GC()
	sp := tr.begin(spRecover, 0, -1)
	start := time.Now()
	rec.stats, err = repro.RecoverWAL(in.store, image, base, 0)
	rec.elapsed = time.Since(start)
	tr.end(sp)
	if err != nil {
		return rec, fmt.Errorf("recover: %w", err)
	}
	if err := checkConservation("transfer-conservation-recovered", base.Table(tbl)); err != nil {
		return rec, err
	}
	if got := rec.stats.Replay.AppliedLSN; got < durable {
		return rec, fmt.Errorf("wal-acked-lsn: acknowledged commits up to LSN %d, recovered only to %d", durable, got)
	}
	return rec, sameRecords("recovered-state", in.db.Table(tbl), base.Table(tbl))
}

// sameRecords verifies that two tables hold identical records.
func sameRecords(name string, want, got repro.Table) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("%s: %d records, want %d", name, got.Len(), want.Len())
	}
	for k := uint64(0); k < want.Len(); k++ {
		if !bytes.Equal(want.Get(k), got.Get(k)) {
			return fmt.Errorf("%s: record %d differs after recovery", name, k)
		}
	}
	return nil
}
