package main

import (
	"math/rand"
	"slices"
	"time"

	"repro"
)

// phase is one kind of timed measurement (an engine and a loop shape)
// made of several short sessions driven by one reused driver.
// Throughput and latency percentiles are computed per window of each
// session and reported as the median window, so a session the machine
// stalled or the scheduler favoured moves the result by a few ranks,
// not by its size. Engine counters are summed over the sessions.
type phase struct {
	d        *driver
	windows  []window
	sortBuf  []int64
	lagP99   []float64 // per session, µs
	lagMax   []float64 // per session, µs
	sessions int

	lat, lag            int // latency and lateness samples
	committed, attempts uint64
	totals              repro.Totals
	msgs                repro.MessageStats // summed; PerCC left empty
	highWater           int                // largest CC queue high-water mark
	ckpt                repro.CheckpointStats
	wal                 repro.WALStats // flusher work during the phase's sessions
	busy                float64        // seconds from first submission to last completion, summed
}

// window is one windowNs slice of a session: its committed completions
// and their latency percentiles in µs.
type window struct {
	n             int
	p50, p90, p99 float64
}

// session runs one engine session and adds it to p. body drives the
// session.
func (r *run) session(p *phase, in *instance, slots int, tr *tracer, body func(*driver, repro.Session)) {
	if p.d == nil {
		p.d = newDriver(slots, 1<<18, tr, sampleEvery)
	} else {
		p.d.reset()
	}
	d := p.d
	w0 := in.log.Stats()
	ses := in.eng.Start()
	body(d, ses)
	res := ses.Close()
	w1 := in.log.Stats()
	if cs, ok := ses.(repro.CheckpointedSession); ok {
		ck := cs.CheckpointStats()
		p.ckpt.Checkpoints += ck.Checkpoints
		p.ckpt.Bytes += ck.Bytes
	}
	if o, ok := in.eng.(*repro.Orthrus); ok {
		m := o.Messages()
		p.msgs.Acquires += m.Acquires
		p.msgs.Forwards += m.Forwards
		p.msgs.Grants += m.Grants
		p.msgs.Releases += m.Releases
		p.msgs.EnqueueOps += m.EnqueueOps
		for _, cc := range m.PerCC {
			p.highWater = max(p.highWater, cc.QueueHighWater)
		}
	}
	p.wal.Records += w1.Records - w0.Records
	p.wal.Bytes += w1.Bytes - w0.Bytes
	p.wal.Syncs += w1.Syncs - w0.Syncs
	p.addTotals(res.Totals)
	p.addWindows(d)
	if len(d.lag) > 0 {
		p.lagP99 = append(p.lagP99, us(percentile(d.lag, 99)))
		p.lagMax = append(p.lagMax, us(slices.Max(d.lag)))
	}
	p.sessions++
	p.lat += len(d.lat)
	p.lag += len(d.lag)
	p.committed += d.committed
	p.attempts += d.attempts
	p.busy += float64(d.last-d.first) / 1e9
	r.account(in, d)
}

// addWindows cuts the driver's committed completions into windows of
// windowNs from its first submission, dropping the partial last one, and
// appends each window's figures.
func (p *phase) addWindows(d *driver) {
	n := int((d.last - d.first) / windowNs)
	if n <= 0 {
		return
	}
	// Counting sort of the latencies by window into sortBuf.
	start := make([]int, n+1)
	for _, e := range d.ends {
		if w := int((e - d.first) / windowNs); w < n {
			start[w+1]++
		}
	}
	for w := 1; w <= n; w++ {
		start[w] += start[w-1]
	}
	p.sortBuf = slices.Grow(p.sortBuf[:0], start[n])[:start[n]]
	next := slices.Clone(start[:n])
	for i, e := range d.ends {
		if w := int((e - d.first) / windowNs); w < n {
			p.sortBuf[next[w]] = d.lat[i]
			next[w]++
		}
	}
	for w := 0; w < n; w++ {
		lat := p.sortBuf[start[w]:start[w+1]]
		slices.Sort(lat)
		p.windows = append(p.windows, window{n: len(lat),
			p50: us(percentile(lat, 50)), p90: us(percentile(lat, 90)), p99: us(percentile(lat, 99))})
	}
}

// closedSession adds one closed-loop session of sessionSeconds to p.
func (r *run) closedSession(p *phase, in *instance, tr *tracer, rng *rand.Rand) {
	r.session(p, in, in.eng.Clients(), tr, func(d *driver, ses repro.Session) {
		d.closed(ses, in.src, rng, seconds(sessionSeconds), 0)
	})
}

// openSession adds one open-loop session of sessionSeconds at the
// workload's rate to p.
func (r *run) openSession(p *phase, in *instance, rng *rand.Rand) {
	r.session(p, in, openSlots, nil, func(d *driver, ses repro.Session) {
		d.lag = slices.Grow(d.lag, int(r.w.rate*sessionSeconds*1.1))
		d.open(ses, in.src, rng, r.w.rate, seconds(sessionSeconds))
	})
}

// warm runs the fixed-count closed-loop warm-up in its own session.
func (r *run) warm(in *instance, rng *rand.Rand) {
	r.session(&phase{}, in, in.eng.Clients(), nil, func(d *driver, ses repro.Session) {
		d.closed(ses, in.src, rng, 0, r.w.warmup)
	})
}

func (p *phase) addTotals(t repro.Totals) {
	a := &p.totals
	a.Committed += t.Committed
	a.Aborted += t.Aborted
	a.Misses += t.Misses
	a.SnapTxns += t.SnapTxns
	a.SnapRecords += t.SnapRecords
	a.SnapHops += t.SnapHops
	a.SnapStaleLSN += t.SnapStaleLSN
	a.Installed += t.Installed
	a.Exec += t.Exec
	a.Lock += t.Lock
	a.Wait += t.Wait
	a.Log += t.Log
}

// windowed returns the median over every window of f.
func (p *phase) windowed(f func(window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// tps returns the median window throughput in transactions per second.
func (p *phase) tps() float64 {
	return p.windowed(func(w window) float64 { return float64(w.n) / (float64(windowNs) / 1e9) })
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func us(ns int64) float64 { return float64(ns) / 1e3 }
