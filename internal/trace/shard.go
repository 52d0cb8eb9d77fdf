package trace

import (
	"sync/atomic"
	"time"
)

// SampleEvery is the default wall-timer sampling period: per-element wall
// timers fire on every SampleEvery-th element and the measured duration is
// scaled back up by the period, so the expected totals are unchanged while
// the time.Now cost is paid 1/SampleEvery of the time (§4.1's low-overhead
// tracing discipline). Engines may override it per run. Wall time is a
// diagnostic only: the model (ops, and the planner and doctor above it)
// reads CPUNanos and the element and byte counters, none of which is ever
// sampled. Timing every element would only slow the traced pipeline, and a
// plan reads the rate that trace observed.
var SampleEvery int64 = 16

// cacheLine is the assumed cache-line size used to pad per-worker shards so
// neighbouring shards in an array never share a line.
const cacheLine = 64

// LocalStats is a per-worker, non-atomic counter shard. Workers accumulate
// into their own LocalStats with plain adds (no cache-line bouncing between
// cores) and Flush the deltas into the shared NodeStats at chunk boundaries
// and on worker exit, so the shared counters stay fresh to within one chunk.
//
// A LocalStats must only be touched by one goroutine at a time (or under a
// mutex that serializes access, as the engine's child-pull lock does).
type LocalStats struct {
	Produced  int64
	Consumed  int64
	Bytes     int64
	CPUNanos  int64
	WallNanos int64
	Retries   int64
	Errors    int64
	GaveUp    int64
	_         [(cacheLine - 8*8%cacheLine) % cacheLine]byte // pad to a full cache line
}

// AddProduced records one produced element of the given size.
func (l *LocalStats) AddProduced(size int64) {
	l.Produced++
	l.Bytes += size
}

// AddConsumed records n elements pulled from the child.
func (l *LocalStats) AddConsumed(n int64) { l.Consumed += n }

// AddCPU records active CPU time.
func (l *LocalStats) AddCPU(d time.Duration) { l.CPUNanos += int64(d) }

// AddWall records wallclock Next time (including blocking).
func (l *LocalStats) AddWall(d time.Duration) { l.WallNanos += int64(d) }

// AddRetry records one transient failure absorbed by the retry policy.
func (l *LocalStats) AddRetry() { l.Retries++ }

// AddError records one failure that surfaced to the node's consumer.
// gaveUp marks errors that were transient but exhausted the retry budget.
func (l *LocalStats) AddError(gaveUp bool) {
	l.Errors++
	if gaveUp {
		l.GaveUp++
	}
}

// Flush atomically publishes the accumulated deltas into ns and zeroes the
// shard. Flushing into a nil handle discards the deltas, so untraced runs
// can share the same code path at zero atomic cost.
func (l *LocalStats) Flush(ns *NodeStats) {
	if ns == nil {
		*l = LocalStats{}
		return
	}
	if l.Produced != 0 {
		atomic.AddInt64(&ns.ElementsProduced, l.Produced)
		l.Produced = 0
	}
	if l.Consumed != 0 {
		atomic.AddInt64(&ns.ElementsConsumed, l.Consumed)
		l.Consumed = 0
	}
	if l.Bytes != 0 {
		atomic.AddInt64(&ns.BytesProduced, l.Bytes)
		l.Bytes = 0
	}
	if l.CPUNanos != 0 {
		atomic.AddInt64(&ns.CPUNanos, l.CPUNanos)
		l.CPUNanos = 0
	}
	if l.WallNanos != 0 {
		atomic.AddInt64(&ns.WallNanos, l.WallNanos)
		l.WallNanos = 0
	}
	if l.Retries != 0 {
		atomic.AddInt64(&ns.Retries, l.Retries)
		l.Retries = 0
	}
	if l.Errors != 0 {
		atomic.AddInt64(&ns.Errors, l.Errors)
		l.Errors = 0
	}
	if l.GaveUp != 0 {
		atomic.AddInt64(&ns.GaveUp, l.GaveUp)
		l.GaveUp = 0
	}
}

// Sampler decides which elements get a wall timer under sampled tracing.
// One Sampler belongs to one worker goroutine.
type Sampler struct {
	every int64
	n     int64
}

// NewSampler returns a sampler firing every `every` ticks (minimum 1).
func NewSampler(every int64) Sampler {
	if every < 1 {
		every = 1
	}
	return Sampler{every: every}
}

// Tick advances the sampler and reports whether this element is sampled.
func (s *Sampler) Tick() bool {
	s.n++
	if s.n >= s.every {
		s.n = 0
		return true
	}
	return false
}

// Scale expands a sampled duration back to the full population, so sampled
// wall totals remain unbiased estimates of the unsampled totals.
func (s *Sampler) Scale(d time.Duration) time.Duration {
	return time.Duration(int64(d) * s.every)
}
