package orthrus

import (
	"net"
	"testing"
	"time"

	"repro/internal/spsc"
	wire "repro/internal/transport"
)

// checkPlane asserts one exec→CC or CC→exec plane's views on a node that
// hosts the plane's producer (sendHere) and/or consumer (recvHere). A
// hosted consumer has its own ring, never shared with another queue; a
// hosted producer names that same ring when the consumer is local too,
// and otherwise a netQueue addressed to (plane, from, to); views of a
// role the node does not host are nil.
func checkPlane(t *testing.T, name string, send [][]sender, recv [][]*spsc.Ring[message],
	plane uint8, rows, cols int, sendHere, recvHere bool, seen map[*spsc.Ring[message]]bool) {
	t.Helper()
	if len(send) != rows || len(recv) != rows {
		t.Fatalf("%s: %d producer / %d consumer rows, want %d", name, len(send), len(recv), rows)
	}
	for i := range send {
		if len(send[i]) != cols || len(recv[i]) != cols {
			t.Fatalf("%s[%d]: %d producer / %d consumer cols, want %d", name, i, len(send[i]), len(recv[i]), cols)
		}
		for j := range send[i] {
			r, snd := recv[i][j], send[i][j]
			switch {
			case recvHere && r == nil:
				t.Errorf("%s[%d][%d]: hosted consumer has no ring", name, i, j)
			case !recvHere && r != nil:
				t.Errorf("%s[%d][%d]: consumer view set on a node without the consumer role", name, i, j)
			case r != nil && seen[r]:
				t.Errorf("%s[%d][%d]: ring shared with another queue", name, i, j)
			}
			seen[r] = true
			switch {
			case !sendHere:
				if snd != nil {
					t.Errorf("%s[%d][%d]: producer view set on a node without the producer role", name, i, j)
				}
			case recvHere:
				if got, ok := snd.(*spsc.Ring[message]); !ok || got != r {
					t.Errorf("%s[%d][%d]: producer view %T is not the consumer's ring", name, i, j, snd)
				}
			default:
				q, ok := snd.(*netQueue)
				if !ok {
					t.Errorf("%s[%d][%d]: remote producer view is %T, want *netQueue", name, i, j, snd)
				} else if q.plane != plane || int(q.from) != i || int(q.to) != j {
					t.Errorf("%s[%d][%d]: netQueue addresses plane %d %d->%d", name, i, j, q.plane, q.from, q.to)
				}
			}
		}
	}
}

// checkForwards asserts the CC→CC matrix: a distinct ring for every
// ordered pair of distinct CC threads and none on the diagonal.
func checkForwards(t *testing.T, fwd [][]*spsc.Ring[message], n int, seen map[*spsc.Ring[message]]bool) {
	t.Helper()
	if len(fwd) != n {
		t.Fatalf("ccToCC has %d rows, want %d", len(fwd), n)
	}
	for i := range fwd {
		if len(fwd[i]) != n {
			t.Fatalf("ccToCC[%d] has %d cols, want %d", i, len(fwd[i]), n)
		}
		for j, r := range fwd[i] {
			switch {
			case i == j && r != nil:
				t.Errorf("ccToCC[%d][%d]: self-forward ring exists", i, j)
			case i != j && r == nil:
				t.Errorf("ccToCC[%d][%d]: missing forward ring", i, j)
			case r != nil && seen[r]:
				t.Errorf("ccToCC[%d][%d]: ring shared with another queue", i, j)
			}
			seen[r] = true
		}
	}
}

// checkNode asserts every queue plane of one node's runState.
func checkNode(t *testing.T, s *runState, hostsCC, hostsExec bool) {
	t.Helper()
	cc, ex := s.cfg.CCThreads, s.cfg.ExecThreads
	seen := map[*spsc.Ring[message]]bool{}
	checkPlane(t, "execToCC", s.execToCCSend, s.execToCCRecv, wire.PlaneExecCC, ex, cc, hostsExec, hostsCC, seen)
	checkPlane(t, "ccToExec", s.ccToExecSend, s.ccToExecRecv, wire.PlaneCCExec, cc, ex, hostsCC, hostsExec, seen)
	if hostsCC {
		checkForwards(t, s.ccToCC, cc, seen)
	} else if s.ccToCC != nil {
		t.Error("ccToCC built on a node without CC threads")
	}
}

// Every node's message plane must be wired so each queue keeps exactly
// one producer and one consumer: in process both views name one ring,
// and across the tcp split each node holds only its hosted role's
// views, with netQueues wherever the consumer is remote. A mis-wired
// view would otherwise surface only as a hang or a timeout.
func TestQueuePlaneWiring(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		db, _ := newDB(8)
		s := New(Config{DB: db, CCThreads: 3, ExecThreads: 2}).newRunState()
		checkNode(t, s, true, true)
	})
	t.Run("tcp", func(t *testing.T) {
		ccDB, _ := newDB(8)
		execDB, _ := newDB(8)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ccCfg := Config{DB: ccDB, CCThreads: 3, ExecThreads: 2,
			Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}}
		execCfg := Config{DB: execDB, CCThreads: 3, ExecThreads: 2,
			Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}}
		started := make(chan *session, 1)
		go func() { started <- New(ccCfg).Start().(*session) }()
		execSes := New(execCfg).Start().(*session)
		ccSes := <-started

		checkNode(t, ccSes.s, true, false)
		checkNode(t, execSes.s, false, true)

		ccDone := make(chan struct{})
		go func() {
			defer close(ccDone)
			ccSes.Close() // gated on the exec node's goodbye
		}()
		execSes.Close()
		select {
		case <-ccDone:
		case <-time.After(30 * time.Second):
			t.Fatal("cc node did not shut down after the exec node closed")
		}
	})
}
