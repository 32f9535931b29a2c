package main

import (
	"fmt"
	"time"

	"repro"
)

// Engine sizing for a 2-vCPU machine: ORTHRUS gets one CC thread and one
// execution thread (default Inflight, so rt.Clients() = 9 outstanding);
// 2PL wait-die gets two workers (rt.Clients() = 4 outstanding).
const (
	orthrusCC   = 1
	orthrusExec = 1
	twoplWorker = 2
)

// workload is one input set of the benchmark. rate is the open-loop
// offered load, fixed here and never derived from the run under test,
// which would make it move with the code. It is about a quarter of
// ORTHRUS's closed-loop throughput on a 2-vCPU machine: at half, queues
// built up behind the VM's stalls moved the open-loop median by 20-50%
// from one session to the next; at a quarter, by about 10%.
type workload struct {
	name    string
	rate    float64 // open-loop Poisson arrivals, txn/s
	warmup  uint64  // fixed-count closed-loop warm-up of every instance
	durable bool
	build   func(tr *tracer) (*instance, error)
}

// instance is one built database with its source, its engine wiring and
// its correctness check.
type instance struct {
	db    *repro.DB
	src   repro.Source
	pf    repro.PartitionFunc // ORTHRUS static partitioning; nil = hash
	touch []int               // fixed tables whose every record set-up pre-touches
	check func(writeCommits uint64) error

	// durable workloads: WAL group commit over in-memory segments plus a
	// periodic fuzzy checkpointer.
	dev       *repro.WALMemSegments
	log       *repro.WAL
	store     repro.CheckpointStore
	ckptEvery time.Duration

	eng repro.System // the engine this instance was built for

	writeCommits uint64 // committed transactions that were not ReadOnly
}

const (
	ycsbRecords     = 1_000_000
	ycsbRecordSize  = 100
	ycsbOps         = 10
	transferRecords = 250_000
	transferRecSize = 16
)

var workloads = []*workload{
	{name: "ycsb-hot", rate: 30_000, warmup: 5_000, build: func(*tracer) (*instance, error) {
		return ycsb(false, 0), nil
	}},
	{name: "ycsb-readmostly", rate: 70_000, warmup: 5_000, build: func(*tracer) (*instance, error) {
		return ycsb(true, 95), nil
	}},
	{name: "tpcc-2wh", rate: 12_000, warmup: 2_000, build: tpcc2wh},
	{name: "transfer-durable", rate: 7_000, warmup: 2_000, durable: true, build: transfer},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ycsb builds the 1M×100 B table with 10-op transactions, 2 ops on 64 hot
// records. versioned adds MVCC version chains; readOnlyPct of the
// transactions are then snapshot reads.
func ycsb(versioned bool, readOnlyPct int) *instance {
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "usertable", NumRecords: ycsbRecords, RecordSize: ycsbRecordSize, Versioned: versioned})
	inst := &instance{
		db: db,
		src: &repro.YCSB{Table: tbl, NumRecords: ycsbRecords, OpsPerTxn: ycsbOps,
			HotRecords: 64, HotOps: 2, ReadOnlyPct: readOnlyPct},
		touch: []int{tbl},
	}
	inst.check = func(writeCommits uint64) error { return checkCounters(db.Table(tbl), writeCommits*ycsbOps) }
	return inst
}

// checkCounters verifies that every committed read-modify-write landed
// exactly once: each increments the first 8 bytes of ycsbOps records.
func checkCounters(tbl repro.Table, want uint64) error {
	if sum := sumFirstU64(tbl); sum != want {
		return fmt.Errorf("ycsb-counters: counter sum %d, want %d (%d per committed RMW transaction)", sum, want, ycsbOps)
	}
	return nil
}

// tpcc2wh loads TPC-C with 2 warehouses (50/50 NewOrder/Payment);
// ORTHRUS partitions by warehouse as in the paper's Figure 9.
func tpcc2wh(*tracer) (*instance, error) {
	s, err := repro.LoadTPCC(repro.TPCCConfig{Warehouses: 2})
	if err != nil {
		return nil, err
	}
	return &instance{
		db:    s.DB,
		src:   &repro.TPCCMix{S: s},
		pf:    s.PartitionByWarehouse(orthrusCC),
		touch: []int{s.Warehouse, s.District, s.Customer, s.Stock, s.Item},
		check: func(uint64) error {
			if err := s.CheckConsistency(); err != nil {
				return fmt.Errorf("tpcc-consistency: %w", err)
			}
			return nil
		},
	}, nil
}

// transfer builds 250k 16-byte balances, all zero, moved by uniform
// unit transfers under WAL group commit with periodic fuzzy checkpoints.
// 250k rather than 1M rows: each session's Close waits for the
// checkpoint in flight, and a 1M-row walk took about 0.35 s on 2 vCPUs.
// A traced run wraps the log device and the checkpoint store.
func transfer(tr *tracer) (*instance, error) {
	db := repro.NewDB()
	tbl := newAccounts(db)
	dev := repro.NewWALMemSegments(segmentBytes)
	var logDev repro.WALDevice = dev
	var store repro.CheckpointStore = repro.NewMemCheckpointStore()
	if tr != nil {
		logDev = &tracedDevice{dev: dev, tr: tr}
		store = &tracedStore{store: store, tr: tr}
	}
	return &instance{
		db:    db,
		src:   &repro.Transfer{Table: tbl, NumRecords: transferRecords},
		touch: []int{tbl},
		check: func(uint64) error { return checkConservation("transfer-conservation-live", db.Table(tbl)) },
		dev:   dev,
		log:   repro.NewWAL(logDev, walPolicy),
		store: store,
	}, nil
}

// segmentBytes is the log segment size: small enough that the crash
// image's second forced checkpoint truncates the log below the first.
const segmentBytes = 256 << 10

// walPolicy is the flush policy of the durable workload: acknowledge after
// sync, syncing when 64 commits are pending or 200µs have passed (the
// package defaults). The device is in memory, so sync latency is the
// flusher's own, not a disk's.
var walPolicy = repro.WALGroup(0, 0)

func newAccounts(db *repro.DB) int {
	return db.Create(repro.Layout{Name: "accounts", NumRecords: transferRecords, RecordSize: transferRecSize})
}

// checkConservation verifies that unit transfers between zero balances
// left the sum at 0 (mod 2^64).
func checkConservation(name string, tbl repro.Table) error {
	if sum := sumFirstU64(tbl); sum != 0 {
		return fmt.Errorf("%s: balance sum %d, want 0", name, int64(sum))
	}
	return nil
}

// sumFirstU64 sums the first 8 bytes of every record, wrapping mod 2^64.
func sumFirstU64(tbl repro.Table) uint64 {
	var sum uint64
	for k := uint64(0); k < tbl.Len(); k++ {
		sum += repro.GetU64(tbl.Get(k), 0)
	}
	return sum
}

// touchBits is always 0; a variable, not a constant, so the compiler
// must keep pretouch's stores.
var touchBits byte

// pretouch writes every record of the listed fixed tables, leaving its
// contents unchanged, so the kernel maps their pages during set-up and
// not inside the timed window: storage.NewFixedTable allocates its arena
// with make, and each page is mapped on first write.
func pretouch(db *repro.DB, tables []int) {
	for _, id := range tables {
		tbl := db.Table(id)
		for k := uint64(0); k < tbl.Len(); k++ {
			tbl.Get(k)[0] |= touchBits
		}
	}
}

// newEngine builds ORTHRUS or 2PL wait-die over the instance; set-up
// time includes the construction. On the durable workload both commit
// through the instance's log, and only ORTHRUS runs the periodic
// checkpointer: 2PL's chunk transactions lock every record, which made
// its checkpoints about four times slower than ORTHRUS's (1.7 s against
// 0.4 s on 1M rows), and each session's Close waits for the one in
// flight.
func (in *instance) newEngine(twopl bool) repro.System {
	if twopl {
		return repro.NewTwoPL(repro.TwoPLConfig{DB: in.db, Handler: repro.WaitDie(), Threads: twoplWorker, Wal: in.log})
	}
	var ck repro.CheckpointConfig
	if in.log != nil {
		ck = repro.CheckpointConfig{Store: in.store, Interval: in.ckptEvery}
	}
	return repro.NewOrthrus(repro.OrthrusConfig{DB: in.db, CCThreads: orthrusCC, ExecThreads: orthrusExec,
		Partition: in.pf, Wal: in.log, Checkpoint: ck})
}
