package spsc

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// unpaddedRing is the control for BenchmarkRingPingPong: the exact Ring
// algorithm with every index packed onto adjacent cache lines, so the
// producer's tail store invalidates the consumer's head line (and both
// sides' peer caches) on every operation. Comparing the two quantifies
// what the padding in Ring buys.
type unpaddedRing[T any] struct {
	buf        []T
	mask       uint64
	closed     atomic.Bool
	tail       atomic.Uint64
	cachedHead uint64
	head       atomic.Uint64
	cachedTail uint64
}

func newUnpadded[T any](capacity int) *unpaddedRing[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &unpaddedRing[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

func (r *unpaddedRing[T]) TryEnqueue(v T) bool {
	tail := r.tail.Load()
	if tail-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if tail-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	return true
}

func (r *unpaddedRing[T]) TryDequeue() (v T, ok bool) {
	head := r.head.Load()
	if head >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if head >= r.cachedTail {
			return v, false
		}
	}
	v = r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero
	r.head.Store(head + 1)
	return v, true
}

// pingPongQueue is the slice of the Ring API the ping-pong exercise
// needs, satisfied by both Ring and the unpadded control.
type pingPongQueue interface {
	TryEnqueue(uint64) bool
	TryDequeue() (uint64, bool)
}

// benchPingPong bounces one token between the bench goroutine and an echo
// goroutine through a request and a response queue — the tightest possible
// cross-core index traffic, which is exactly the pattern false sharing
// slows down. Gosched in every spin keeps it live at GOMAXPROCS=1.
func benchPingPong(b *testing.B, req, resp pingPongQueue) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := req.TryDequeue()
			if !ok {
				if stop.Load() {
					return
				}
				runtime.Gosched()
				continue
			}
			for !resp.TryEnqueue(v) {
				runtime.Gosched()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !req.TryEnqueue(uint64(i)) {
			runtime.Gosched()
		}
		for {
			if _, ok := resp.TryDequeue(); ok {
				break
			}
			runtime.Gosched()
		}
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}

// BenchmarkRingPingPong compares the cache-line-grouped Ring layout
// against an unpadded control running the identical algorithm. The gap is
// the cost of false sharing on the message plane; the benchgate CI job
// tracks the padded number against bench-baseline.txt.
func BenchmarkRingPingPong(b *testing.B) {
	b.Run("padded", func(b *testing.B) {
		benchPingPong(b, New[uint64](256), New[uint64](256))
	})
	b.Run("unpadded", func(b *testing.B) {
		benchPingPong(b, newUnpadded[uint64](256), newUnpadded[uint64](256))
	})
}
