package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// HandoffKind selects the stage-edge implementation parallel iterators use to
// hand chunks downstream (Options.Handoff).
type HandoffKind string

const (
	// HandoffRing is the default: sharded SPMC ring buffers with
	// power-of-two capacity, padded atomic cursors, and bounded
	// spin-then-park waiters. Producers publish chunk descriptors without
	// allocation or channel locks; the consumer steals across shards when
	// its preferred shard runs dry.
	HandoffRing HandoffKind = "ring"
	// HandoffChannel is the PR-1 buffered-Go-channel edge, kept as the A/B
	// baseline for benchmarks.
	HandoffChannel HandoffKind = "channel"
)

// handoff is one stage edge: parallel-stage workers publish []item chunk
// descriptors, the downstream consumer drains them. Implementations must
// support one producer per worker index and a single logical consumer at a
// time (a stage's pull serializes its consumers; cursor atomics keep
// the ring safe even when the consuming goroutine identity changes).
type handoff interface {
	// trySend publishes a chunk from producer w without blocking; it
	// reports whether the chunk was accepted.
	trySend(w int, c []item) bool
	// send publishes a chunk from producer w, blocking while the edge is
	// full. It returns false when done closes — the chunk was not accepted.
	// done is the stage's latch, the one signal that stops a parked
	// producer: edge.stop and Pipeline.Cancel close it.
	send(w int, c []item, done <-chan struct{}) bool
	// tryRecv takes the next available chunk without blocking. prefer is
	// the consumer's shard-affinity cursor, updated on steal.
	tryRecv(prefer *int) ([]item, bool)
	// recv takes the next chunk, blocking while the edge is empty. It
	// returns ok == false when cancel closes or when the edge is closed
	// and fully drained (both surface as io.EOF to the iterator).
	recv(prefer *int, cancel <-chan struct{}) ([]item, bool)
	// empty reports whether the consumer is starving (no chunk buffered);
	// the prefetch producer uses it to cut partial chunks early.
	empty() bool
	// close marks the producer side finished: once drained, recv returns
	// ok == false. Called after every producer has exited.
	close()
	// stats returns cumulative waiter parks and cross-shard steals for the
	// trace handoff counters (zero for the channel edge, which cannot
	// observe its own futex waits).
	stats() (parks, steals int64)
}

// newHandoff builds the configured edge for `producers` workers with
// `depth` chunk descriptors of buffering per producer.
func (p *Pipeline) newHandoff(producers, depth int) handoff {
	if producers < 1 {
		producers = 1
	}
	if depth < 1 {
		depth = 1
	}
	if p.opts.Handoff == HandoffChannel {
		return newChannelHandoff(producers * depth)
	}
	return newRingHandoff(producers, depth)
}

// ---------------------------------------------------------------------------
// Channel edge (baseline)

// channelHandoff adapts the PR-1 buffered channel to the handoff interface.
type channelHandoff struct {
	ch chan []item
}

func newChannelHandoff(capacity int) *channelHandoff {
	return &channelHandoff{ch: make(chan []item, capacity)}
}

func (h *channelHandoff) trySend(_ int, c []item) bool {
	select {
	case h.ch <- c:
		return true
	default:
		return false
	}
}

func (h *channelHandoff) send(_ int, c []item, done <-chan struct{}) bool {
	select {
	case h.ch <- c:
		return true
	case <-done:
		return false
	}
}

func (h *channelHandoff) tryRecv(_ *int) ([]item, bool) {
	select {
	case c, ok := <-h.ch:
		if !ok {
			return nil, false
		}
		return c, true
	default:
		return nil, false
	}
}

func (h *channelHandoff) recv(_ *int, cancel <-chan struct{}) ([]item, bool) {
	// Prefer data already handed off over cancellation, so cancel does not
	// drop elements a worker has completed.
	select {
	case c, ok := <-h.ch:
		return c, ok
	default:
	}
	select {
	case c, ok := <-h.ch:
		return c, ok
	case <-cancel:
		return nil, false
	}
}

func (h *channelHandoff) empty() bool { return len(h.ch) == 0 }

func (h *channelHandoff) close() { close(h.ch) }

func (h *channelHandoff) stats() (int64, int64) { return 0, 0 }

// ---------------------------------------------------------------------------
// Sharded SPMC ring edge

// ringSpin bounds how many probe rounds a waiter spins before parking. On a
// single-P runtime spinning cannot make the other side run, so waiters park
// almost immediately; with real parallelism a short spin window rides out
// the common "chunk is one cache miss away" case without a futex round-trip.
var ringSpin = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 64
	}
	return 1
}()

const cacheLinePad = 64

// ringSlot is one chunk descriptor cell. seq is the Vyukov-style sequence
// cursor: slot free for lap L when seq == L*cap+i, occupied when seq ==
// L*cap+i+1. The chunk slice header is published by the seq store-release
// and read under the matching load-acquire, so descriptors move between
// goroutines without locks or allocation.
type ringSlot struct {
	seq atomic.Uint64
	c   []item
	_   [cacheLinePad - 8 - 24 - (8+24)%cacheLinePad]byte
}

// ringShard is one producer's SPMC ring: the owning worker publishes at
// tail, any consumer steals at head. Cursors are padded to their own cache
// lines so producer and consumer never false-share.
type ringShard struct {
	_     [cacheLinePad]byte
	tail  atomic.Uint64 // next position the owning producer fills
	_     [cacheLinePad - 8]byte
	head  atomic.Uint64 // next position a consumer takes
	_     [cacheLinePad - 8]byte
	slots []ringSlot
	mask  uint64
}

// push publishes c at the owner's tail; it reports false when the shard has
// no free slot (or the logical depth limit is reached).
func (sh *ringShard) push(c []item, limit uint64) bool {
	pos := sh.tail.Load()
	if pos-sh.head.Load() >= limit {
		return false // logical depth limit (prefetch lookahead bound)
	}
	slot := &sh.slots[pos&sh.mask]
	if slot.seq.Load() != pos {
		return false // full: the consumer has not freed this cell yet
	}
	slot.c = c
	slot.seq.Store(pos + 1) // release: publishes the descriptor
	sh.tail.Store(pos + 1)
	return true
}

// pop takes the chunk at head, if any. The head CAS arbitrates racing
// consumers; the final seq store frees the cell for the producer's next lap.
func (sh *ringShard) pop() ([]item, bool) {
	for {
		pos := sh.head.Load()
		slot := &sh.slots[pos&sh.mask]
		if slot.seq.Load() != pos+1 {
			return nil, false // empty (or mid-publish)
		}
		if sh.head.CompareAndSwap(pos, pos+1) {
			c := slot.c
			slot.c = nil
			slot.seq.Store(pos + sh.mask + 1)
			return c, true
		}
	}
}

// ringHandoff is the sharded SPMC edge: one ring per producer, a consumer
// that sticks to its last productive shard and steals across the others when
// it runs dry, and bounded spin-then-park waiters on both sides.
type ringHandoff struct {
	shards []*ringShard
	limit  uint64 // per-shard logical depth (<= slot capacity)
	closed atomic.Bool

	notEmpty notifier // consumers park here; producers wake it on publish
	notFull  notifier // producers park here; consumers wake it on take

	parks  atomic.Int64
	steals atomic.Int64
}

func newRingHandoff(producers, depth int) *ringHandoff {
	// At least two cells: with one, a cell's "occupied at lap L" and "free
	// for lap L+1" sequence values are the same number, so a consumer's head
	// CAS alone would tell the producer (through the depth limit) that the
	// cell is free while the consumer is still reading it. The limit keeps
	// the logical depth at the requested 1.
	capacity := 2
	for capacity < depth {
		capacity <<= 1
	}
	r := &ringHandoff{limit: uint64(depth)}
	r.notEmpty.init()
	r.notFull.init()
	r.shards = make([]*ringShard, producers)
	for i := range r.shards {
		sh := &ringShard{slots: make([]ringSlot, capacity), mask: uint64(capacity - 1)}
		for j := range sh.slots {
			sh.slots[j].seq.Store(uint64(j))
		}
		r.shards[i] = sh
	}
	return r
}

func (r *ringHandoff) trySend(w int, c []item) bool {
	if r.shards[w].push(c, r.limit) {
		r.notEmpty.wake()
		return true
	}
	return false
}

func (r *ringHandoff) send(w int, c []item, done <-chan struct{}) bool {
	sh := r.shards[w]
	for {
		for i := 0; ; i++ {
			if sh.push(c, r.limit) {
				r.notEmpty.wake()
				return true
			}
			if i >= ringSpin {
				break
			}
			runtime.Gosched()
		}
		// Park until a consumer frees a cell. Registering the sleeper and
		// grabbing the generation channel BEFORE the final re-check closes
		// the lost-wakeup window: any pop after the re-check sees the
		// sleeper and closes the channel we select on.
		r.notFull.sleepers.Add(1)
		ch := r.notFull.gate()
		if sh.push(c, r.limit) {
			r.notFull.sleepers.Add(-1)
			r.notEmpty.wake()
			return true
		}
		r.parks.Add(1)
		select {
		case <-ch:
		case <-done:
			r.notFull.sleepers.Add(-1)
			return false
		}
		r.notFull.sleepers.Add(-1)
	}
}

// scan pops from the preferred shard, stealing from the others in order when
// it runs dry.
func (r *ringHandoff) scan(prefer *int) ([]item, bool) {
	n := len(r.shards)
	p := *prefer
	if p >= n || p < 0 {
		p = 0
	}
	for i := 0; i < n; i++ {
		idx := p + i
		if idx >= n {
			idx -= n
		}
		if c, ok := r.shards[idx].pop(); ok {
			if idx != p {
				r.steals.Add(1)
				*prefer = idx
			}
			r.notFull.wake()
			return c, true
		}
	}
	return nil, false
}

func (r *ringHandoff) tryRecv(prefer *int) ([]item, bool) {
	return r.scan(prefer)
}

func (r *ringHandoff) recv(prefer *int, cancel <-chan struct{}) ([]item, bool) {
	for {
		for i := 0; ; i++ {
			if c, ok := r.scan(prefer); ok {
				return c, true
			}
			// closed is read after the empty scan: producers close only
			// after their final publish, so closed-and-still-empty means
			// fully drained.
			if r.closed.Load() {
				if c, ok := r.scan(prefer); ok {
					return c, true
				}
				return nil, false
			}
			if i >= ringSpin {
				break
			}
			runtime.Gosched()
		}
		r.notEmpty.sleepers.Add(1)
		ch := r.notEmpty.gate()
		if c, ok := r.scan(prefer); ok {
			r.notEmpty.sleepers.Add(-1)
			return c, true
		}
		if r.closed.Load() {
			r.notEmpty.sleepers.Add(-1)
			if c, ok := r.scan(prefer); ok {
				return c, true
			}
			return nil, false
		}
		r.parks.Add(1)
		select {
		case <-ch:
		case <-cancel:
			r.notEmpty.sleepers.Add(-1)
			return nil, false
		}
		r.notEmpty.sleepers.Add(-1)
	}
}

func (r *ringHandoff) empty() bool {
	for _, sh := range r.shards {
		pos := sh.head.Load()
		if sh.slots[pos&sh.mask].seq.Load() == pos+1 {
			return false
		}
	}
	return true
}

// close wakes parked consumers only: every producer has exited by now.
func (r *ringHandoff) close() {
	r.closed.Store(true)
	r.notEmpty.wakeForce()
}

func (r *ringHandoff) stats() (int64, int64) {
	return r.parks.Load(), r.steals.Load()
}

// ---------------------------------------------------------------------------
// Park/wake notifier

// notifier is a broadcast wake-up channel with a sleeper count: wake is a
// no-op (one atomic load) while nobody is parked, so the hot path never
// touches the mutex. Waiters follow the register-then-recheck protocol
// documented at the park sites.
type notifier struct {
	sleepers atomic.Int32
	mu       sync.Mutex
	ch       chan struct{}
}

func (n *notifier) init() { n.ch = make(chan struct{}) }

// gate returns the current generation channel; a waiter must grab it before
// its final state re-check.
func (n *notifier) gate() chan struct{} {
	n.mu.Lock()
	ch := n.ch
	n.mu.Unlock()
	return ch
}

// wake broadcasts to parked waiters, if any.
func (n *notifier) wake() {
	if n.sleepers.Load() == 0 {
		return
	}
	n.wakeForce()
}

// wakeForce broadcasts unconditionally (the close path, where a sleeper may
// be between registering and parking).
func (n *notifier) wakeForce() {
	n.mu.Lock()
	close(n.ch)
	n.ch = make(chan struct{})
	n.mu.Unlock()
}
