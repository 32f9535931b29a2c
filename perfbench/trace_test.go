package main

import (
	"math/rand"
	"testing"
	"time"

	"repro"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 50, parent: 0},    // 2: overlaps 1: union [10,50)
		{start: 90, end: 120, parent: 0},   // 3: runs past the parent: clipped to [90,100)
		{start: 12, end: 18, parent: 1},    // 4: grandchild counts against 1 only
		{start: 200, end: 210, parent: -1}, // 5: unrelated root
		{start: 40, end: 0, parent: 0},     // 6: never ended: covers nothing
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerDropsBeyondCapacity(t *testing.T) {
	tr := newTracer(2)
	a, b, c := tr.begin(spTxn, 1, -1), tr.begin(spLogic, 1, 0), tr.begin(spRead, 1, 1)
	tr.end(a)
	tr.end(b)
	tr.end(c)
	if a != 0 || b != 1 || c != -1 || tr.dropped.Load() != 1 || len(tr.recorded()) != 2 {
		t.Errorf("got spans %d %d %d, dropped %d, recorded %d", a, b, c, tr.dropped.Load(), len(tr.recorded()))
	}
	var off *tracer
	if off.begin(spTxn, 1, -1) != -1 || off.recorded() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

// The device and store wrappers must leave the program unchanged: the
// log still rotates segments and checkpoints still truncate it, and the
// wrapped store still recovers the state.
func TestTracedWrappersKeepTruncation(t *testing.T) {
	tr := newTracer(1 << 16)
	truncated := checkpointedTransfers(t, tr, func(dev *repro.WALMemSegments) repro.WALDevice {
		return &tracedDevice{dev: dev, tr: tr}
	})
	if truncated == 0 {
		t.Fatal("no truncation under the traced wrappers")
	}
	ls := summarize(tr)
	if ls.count[spWalWrite] == 0 || ls.count[spWalSync] == 0 || ls.count[spCkpt] != 3 || ls.count[spCkptPage] == 0 {
		t.Errorf("wrapper spans missing: %v", ls.count)
	}
}

// A wrapper that forwards only Write/Sync/Close hides the segment
// interface from wal.NewLog and truncation silently stops: the reason
// tracedDevice forwards Mark and Truncate too.
func TestPlainDeviceWrapperLosesTruncation(t *testing.T) {
	type plain struct{ repro.WALDevice }
	truncated := checkpointedTransfers(t, nil, func(dev *repro.WALMemSegments) repro.WALDevice {
		return plain{dev}
	})
	if truncated != 0 {
		t.Fatalf("plain wrapper still truncated %d segments", truncated)
	}
}

// checkpointedTransfers commits 6000 transfers on ORTHRUS with a log over
// wrap(device) and a checkpoint forced after every 2000, checks that
// recovery through the (traced, when tr is set) store reproduces the
// state, and returns how many log segments checkpoints truncated.
func checkpointedTransfers(t *testing.T, tr *tracer, wrap func(*repro.WALMemSegments) repro.WALDevice) uint64 {
	t.Helper()
	const records = 4096
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: records, RecordSize: transferRecSize})
	dev := repro.NewWALMemSegments(4 << 10)
	var store repro.CheckpointStore = repro.NewMemCheckpointStore()
	if tr != nil {
		store = &tracedStore{store: store, tr: tr}
	}
	log := repro.NewWAL(wrap(dev), walPolicy)
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1, Wal: log,
		Checkpoint: repro.CheckpointConfig{Store: store, Interval: time.Hour}})
	d := newDriver(eng.Clients(), 0, tr, 1)
	rng := rand.New(rand.NewSource(1))
	src := &repro.Transfer{Table: tbl, NumRecords: records}
	ses := eng.Start()
	for i := uint64(1); i <= 3; i++ {
		d.closed(ses, src, rng, 0, 2000*i)
		if err := repro.ForceCheckpoint(ses); err != nil {
			t.Fatal(err)
		}
	}
	ses.Drain()
	image := dev.CrashSegments()
	ck := ses.(repro.CheckpointedSession).CheckpointStats()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if d.committed != 6000 || (tr != nil && d.attempts != d.committed) {
		t.Errorf("committed %d with %d attempts, want 6000", d.committed, d.attempts)
	}
	if ck.TruncatedSegments != uint64(dev.Truncated()) {
		t.Errorf("checkpointer truncated %d segments, device dropped %d", ck.TruncatedSegments, dev.Truncated())
	}
	base := repro.NewDB()
	btbl := base.Create(repro.Layout{Name: "accounts", NumRecords: records, RecordSize: transferRecSize})
	if _, err := repro.RecoverWAL(store, image, base, 0); err != nil {
		t.Fatal(err)
	}
	if err := sameRecords("recovered-state", db.Table(tbl), base.Table(btbl)); err != nil {
		t.Error(err)
	}
	return ck.TruncatedSegments
}

// Tracing wraps every transaction's Logic, Ctx and Replan; the program
// must compute the same result, and pooled transactions must come back
// with their own Logic so a later untraced run still works.
func TestTracedLogicKeepsResults(t *testing.T) {
	in := ycsb(false, 0)
	tr := newTracer(1 << 16)
	for _, twopl := range []bool{true, false} {
		eng := in.newEngine(twopl)
		for _, traced := range []*tracer{tr, nil} {
			d := newDriver(eng.Clients(), 0, traced, 4)
			ses := eng.Start()
			d.closed(ses, in.src, rand.New(rand.NewSource(2)), 0, 5000)
			ses.Close()
			in.writeCommits += d.committed - d.readOnly
			if traced != nil && d.attempts < d.committed {
				t.Errorf("twopl=%v: %d attempts for %d commits", twopl, d.attempts, d.committed)
			}
		}
	}
	if err := in.check(in.writeCommits); err != nil {
		t.Error(err)
	}
	if ls := summarize(tr); ls.count[spTxn] == 0 || ls.count[spLogic] < ls.count[spTxn] || ls.count[spWrite] == 0 {
		t.Errorf("span counts %v", ls.count)
	}

	s, err := repro.LoadTPCC(repro.TPCCConfig{Warehouses: 2, Items: 1000, CustomersPerDistrict: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: s.DB, CCThreads: 1, ExecThreads: 1, Partition: s.PartitionByWarehouse(1)})
	d := newDriver(eng.Clients(), 0, newTracer(1<<16), 1)
	ses := eng.Start()
	d.closed(ses, &repro.TPCCMix{S: s}, rand.New(rand.NewSource(3)), 0, 5000)
	res := ses.Close()
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if want := d.committed + res.Totals.Misses; d.attempts < want {
		t.Errorf("tpcc: %d attempts for %d commits and %d estimate misses", d.attempts, d.committed, res.Totals.Misses)
	}
}
