package main

import (
	"strings"
	"testing"

	"repro"
)

func newTable(records uint64) (*repro.DB, int) {
	db := repro.NewDB()
	return db, db.Create(repro.Layout{Name: "t", NumRecords: records, RecordSize: 16})
}

func TestCheckCounters(t *testing.T) {
	db, tbl := newTable(100)
	for k := uint64(0); k < 30; k++ {
		repro.AddU64(db.Table(tbl).Get(k), 0, 1)
	}
	if err := checkCounters(db.Table(tbl), 30); err != nil {
		t.Errorf("matching sum rejected: %v", err)
	}
	if err := checkCounters(db.Table(tbl), 40); err == nil || !strings.HasPrefix(err.Error(), "ycsb-counters:") {
		t.Errorf("lost writes not reported by name: %v", err)
	}
}

func TestCheckConservation(t *testing.T) {
	db, tbl := newTable(100)
	repro.AddU64(db.Table(tbl).Get(3), 0, ^uint64(0)) // -1
	repro.AddU64(db.Table(tbl).Get(7), 0, 1)
	if err := checkConservation("c", db.Table(tbl)); err != nil {
		t.Errorf("balanced transfer rejected: %v", err)
	}
	repro.AddU64(db.Table(tbl).Get(9), 0, 1)
	if err := checkConservation("c", db.Table(tbl)); err == nil || !strings.HasPrefix(err.Error(), "c:") {
		t.Errorf("unbalanced sum not reported by name: %v", err)
	}
}

func TestSameRecords(t *testing.T) {
	a, ta := newTable(10)
	b, tb := newTable(10)
	if err := sameRecords("s", a.Table(ta), b.Table(tb)); err != nil {
		t.Errorf("equal tables rejected: %v", err)
	}
	repro.AddU64(b.Table(tb).Get(4), 8, 1)
	if err := sameRecords("s", a.Table(ta), b.Table(tb)); err == nil {
		t.Error("differing record not reported")
	}
}

func TestPretouchKeepsContents(t *testing.T) {
	db, tbl := newTable(1000)
	repro.PutU64(db.Table(tbl).Get(5), 0, 0xff)
	pretouch(db, []int{tbl})
	if got := repro.GetU64(db.Table(tbl).Get(5), 0); got != 0xff {
		t.Errorf("pretouch changed a record: %#x", got)
	}
}
