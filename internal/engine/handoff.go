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
	// HandoffRing is the default: one single-producer/single-consumer ring
	// per producer, with padded atomic cursors and bounded spin-then-park
	// waiters. A producer publishes a chunk descriptor with a bounds check,
	// a store and a cursor store; the one consumer takes from the producers
	// in turn.
	HandoffRing HandoffKind = "ring"
	// HandoffChannel is the PR-1 buffered-Go-channel edge, kept as the A/B
	// baseline for benchmarks.
	HandoffChannel HandoffKind = "channel"
)

// handoff is one stage edge: parallel-stage workers publish []item chunk
// descriptors, the downstream consumer drains them. Implementations support
// one producer per worker index and one consumer at a time: a stage's pull
// serializes its consumers (map workers pull their child under a mutex, the
// root is pulled from one goroutine, and a stage's Close drains its edge only
// after its last pull), so the consuming goroutine may change between takes
// but two never take at once.
type handoff interface {
	// trySend publishes a chunk from producer w without blocking; it
	// reports whether the chunk was accepted.
	trySend(w int, c []item) bool
	// send publishes a chunk from producer w, blocking while the edge is
	// full. It returns false when done closes — the chunk was not accepted.
	// done is the stage's latch, the one signal that stops a parked
	// producer: edge.stop and Pipeline.Cancel close it.
	send(w int, c []item, done <-chan struct{}) bool
	// tryRecv takes the next available chunk without blocking.
	tryRecv() ([]item, bool)
	// recv takes the next chunk, blocking while the edge is empty. It
	// returns ok == false when cancel closes or when the edge is closed
	// and fully drained (both surface as io.EOF to the iterator).
	recv(cancel <-chan struct{}) ([]item, bool)
	// empty reports whether the consumer is starving (no chunk buffered);
	// the prefetch producer uses it to cut partial chunks early.
	empty() bool
	// close marks the producer side finished: once drained, recv returns
	// ok == false. Called after every producer has exited.
	close()
	// stats returns the cumulative waiter parks for the trace's handoff
	// counter (zero for the channel edge, which cannot observe its own
	// futex waits).
	stats() (parks int64)
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

func (h *channelHandoff) tryRecv() ([]item, bool) {
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

func (h *channelHandoff) recv(cancel <-chan struct{}) ([]item, bool) {
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

func (h *channelHandoff) stats() int64 { return 0 }

// ---------------------------------------------------------------------------
// Ring edge

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

// ringShard is one producer's single-producer/single-consumer ring of depth
// chunk descriptors. The producer owns tail and the consumer owns head, each
// on its own cache line; each side loads the other's cursor only to see
// whether there is room (push) or a chunk (pop). The cursor store after a
// slot's write publishes the slot (tail) or frees it (head), so descriptors
// move between goroutines without a lock, a CAS or a per-slot sequence.
type ringShard struct {
	_     [cacheLinePad]byte
	tail  atomic.Uint64 // next position the producer fills
	_     [cacheLinePad - 8]byte
	head  atomic.Uint64 // next position the consumer takes
	_     [cacheLinePad - 8]byte
	slots []ringSlot
}

// ringSlot holds one chunk descriptor on its own cache line, so a producer
// filling one slot does not false-share with the consumer reading the next.
type ringSlot struct {
	c []item
	_ [cacheLinePad - 24]byte
}

// push publishes c at the tail; it reports false when the ring is full.
func (sh *ringShard) push(c []item) bool {
	pos, n := sh.tail.Load(), uint64(len(sh.slots))
	if pos-sh.head.Load() == n {
		return false
	}
	sh.slots[pos%n].c = c
	sh.tail.Store(pos + 1)
	return true
}

// pop takes the chunk at the head, if any.
func (sh *ringShard) pop() ([]item, bool) {
	pos := sh.head.Load()
	if pos == sh.tail.Load() {
		return nil, false
	}
	slot := &sh.slots[pos%uint64(len(sh.slots))]
	c := slot.c
	slot.c = nil
	sh.head.Store(pos + 1)
	return c, true
}

// ringHandoff is the ring edge: one single-producer ring per producer, one
// consumer at a time that takes from the producers in turn, and bounded
// spin-then-park waiters on both sides.
type ringHandoff struct {
	shards []*ringShard
	closed atomic.Bool

	notEmpty notifier // the consumer parks here; producers wake it on publish
	notFull  notifier // producers park here; the consumer wakes it on take

	parks atomic.Int64
	next  int // the shard the consumer's next scan starts at; consumer-owned
}

func newRingHandoff(producers, depth int) *ringHandoff {
	r := &ringHandoff{shards: make([]*ringShard, producers)}
	r.notEmpty.init()
	r.notFull.init()
	for i := range r.shards {
		r.shards[i] = &ringShard{slots: make([]ringSlot, depth)}
	}
	return r
}

func (r *ringHandoff) trySend(w int, c []item) bool {
	if r.shards[w].push(c) {
		r.notEmpty.wake()
		return true
	}
	return false
}

func (r *ringHandoff) send(w int, c []item, done <-chan struct{}) bool {
	for i := 0; ; i++ {
		if r.trySend(w, c) {
			return true
		}
		if i < ringSpin {
			runtime.Gosched()
			continue
		}
		// Park until the consumer frees a slot. Registering the sleeper and
		// grabbing the generation channel BEFORE the final re-check closes
		// the lost-wakeup window: any pop after the re-check sees the
		// sleeper and closes the channel we select on.
		r.notFull.sleepers.Add(1)
		ch := r.notFull.gate()
		if r.trySend(w, c) {
			r.notFull.sleepers.Add(-1)
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
		i = -1 // spin again before the next park
	}
}

// tryRecv takes a chunk without blocking, trying the producers in turn from
// the one after the last take, so every producer's chunks go out in turn.
func (r *ringHandoff) tryRecv() ([]item, bool) {
	n := len(r.shards)
	for i := range n {
		idx := r.next + i
		if idx >= n {
			idx -= n
		}
		if c, ok := r.shards[idx].pop(); ok {
			if r.next = idx + 1; r.next == n {
				r.next = 0
			}
			r.notFull.wake()
			return c, true
		}
	}
	return nil, false
}

func (r *ringHandoff) recv(cancel <-chan struct{}) ([]item, bool) {
	for i := 0; ; i++ {
		if c, ok := r.tryRecv(); ok {
			return c, true
		}
		// closed is read after the empty scan: producers close only after
		// their final publish, so closed and still empty on one more scan
		// means fully drained.
		if r.closed.Load() {
			return r.tryRecv()
		}
		if i < ringSpin {
			runtime.Gosched()
			continue
		}
		// Park until a producer publishes (the same register-then-recheck
		// protocol as send).
		r.notEmpty.sleepers.Add(1)
		ch := r.notEmpty.gate()
		if r.empty() && !r.closed.Load() {
			r.parks.Add(1)
			select {
			case <-ch:
			case <-cancel:
				r.notEmpty.sleepers.Add(-1)
				return nil, false
			}
		}
		r.notEmpty.sleepers.Add(-1)
		i = -1
	}
}

func (r *ringHandoff) empty() bool {
	for _, sh := range r.shards {
		if sh.head.Load() != sh.tail.Load() {
			return false
		}
	}
	return true
}

// close wakes a parked consumer only: every producer has exited by now.
func (r *ringHandoff) close() {
	r.closed.Store(true)
	r.notEmpty.wakeForce()
}

func (r *ringHandoff) stats() int64 { return r.parks.Load() }

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
