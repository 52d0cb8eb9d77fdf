package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"plumber/internal/data"
)

// TestRingHandoffGeometry pins the layout: one ring per producer holding
// exactly the requested depth of chunks, each cursor and each slot on its own
// cache line.
func TestRingHandoffGeometry(t *testing.T) {
	r := newRingHandoff(2, 3)
	if len(r.shards) != 2 {
		t.Fatalf("shards = %d, want 2 (one per producer)", len(r.shards))
	}
	for i := 0; i < 3; i++ {
		if !r.trySend(1, []item{{}}) {
			t.Fatalf("depth 3: send %d refused", i)
		}
	}
	if r.trySend(1, []item{{}}) {
		t.Fatal("depth 3: a fourth chunk was accepted")
	}
	if !r.trySend(0, []item{{}}) {
		t.Fatal("a full ring refused another producer's chunk")
	}
	for range 2 { // producer 0's chunk, then in turn producer 1's
		if _, ok := r.tryRecv(); !ok {
			t.Fatal("no chunk to take")
		}
	}
	if !r.trySend(1, []item{{}}) {
		t.Fatal("depth 3: a taken chunk did not free its slot")
	}
	var sh ringShard
	if d := unsafe.Offsetof(sh.head) - unsafe.Offsetof(sh.tail); d < cacheLinePad {
		t.Fatalf("head is %d bytes past tail, want a cache line apart", d)
	}
	if n := unsafe.Sizeof(ringSlot{}); n != cacheLinePad {
		t.Fatalf("a slot is %d bytes, want one cache line", n)
	}
}

// TestChunkRecycleAllocatesNothing: a drained chunk goes back to the pool
// and out to the next producer without a heap object. Boxing the slice
// header for the pool's interface value cost one per chunk handed off — on
// an in-memory chain, nearly every object a whole drain allocated.
func TestChunkRecycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	putChunk(getChunk(64)) // the first round trip makes the chunk and its box
	if n := testing.AllocsPerRun(100, func() {
		c := getChunk(64)
		for i := range 64 {
			c = append(c, item{elem: data.Element{Count: 1, Index: int64(i)}})
		}
		putChunk(c)
	}); n != 0 {
		t.Fatalf("a chunk's get/fill/put round trip allocates %.2f objects, want 0", n)
	}
}

// TestRingHandoffDepthOne is the workout for the shallowest edge — what a
// Prefetch of three elements or fewer builds: one slot, which the producer
// may fill again only once the consumer has read it. Every chunk must arrive
// exactly once, in order, and the run must end.
func TestRingHandoffDepthOne(t *testing.T) {
	r := newRingHandoff(1, 1)
	const chunks = 200000
	done := make(chan struct{})
	go func() {
		defer r.close()
		for i := 0; i < chunks; i++ {
			if !r.send(0, []item{{elem: data.Element{Index: int64(i)}}}, done) {
				return
			}
		}
	}()
	timeout := time.After(30 * time.Second)
	for want := int64(0); ; want++ {
		got := make(chan []item, 1)
		go func() {
			c, _ := r.recv(done)
			got <- c
		}()
		select {
		case c := <-got:
			if c == nil {
				if want != chunks {
					t.Fatalf("edge closed after %d chunks, want %d", want, chunks)
				}
				return
			}
			if len(c) != 1 || c[0].elem.Index != want {
				t.Fatalf("chunk %d arrived as %+v", want, c)
			}
		case <-timeout:
			close(done)
			t.Fatalf("edge wedged after %d chunks: full to the producer, empty to the consumer", want)
		}
	}
}

// TestRingHandoffOneConsumerWrapAround is the -race workout for the ring:
// three producers push 400 chunks each through depth-1 and depth-2 rings
// (hundreds of laps), while the consuming goroutine changes every few chunks
// under a mutex, as map workers take turns on their child's edge. Every chunk
// must arrive exactly once, each producer's in the order it sent them.
func TestRingHandoffOneConsumerWrapAround(t *testing.T) {
	const (
		producers   = 3
		perProducer = 400
	)
	for _, depth := range []int{1, 2} {
		r := newRingHandoff(producers, depth)
		var pwg sync.WaitGroup
		for w := range producers {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for i := range perProducer {
					c := []item{{elem: data.Element{Index: int64(w*perProducer + i)}}}
					if !r.send(w, c, nil) {
						t.Errorf("depth %d producer %d: send %d rejected on an open ring", depth, w, i)
						return
					}
				}
			}()
		}
		go func() {
			pwg.Wait()
			r.close()
		}()

		var (
			mu      sync.Mutex
			drained bool
			got     int
			next    [producers]int64 // each producer's next index
			cwg     sync.WaitGroup
		)
		for range 3 {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for {
					mu.Lock()
					for k := 0; k < 3 && !drained; k++ {
						c, ok := r.recv(nil)
						if !ok {
							drained = true
							break
						}
						idx := c[0].elem.Index
						w := idx / perProducer
						if idx != w*perProducer+next[w] {
							t.Errorf("depth %d: chunk %d arrived where producer %d's chunk %d was due", depth, idx, w, next[w])
						}
						next[w]++
						got++
					}
					stop := drained
					mu.Unlock()
					if stop {
						return
					}
					runtime.Gosched()
				}
			}()
		}
		cwg.Wait()
		if got != producers*perProducer {
			t.Fatalf("depth %d: delivered %d chunks, want %d", depth, got, producers*perProducer)
		}
	}
}

// TestRingHandoffCancelDuringPark verifies a consumer parked on an empty ring
// wakes on cancellation with ok == false, and a producer parked on a full
// shard wakes on its done channel the same way. The register-then-recheck
// protocol makes this correct whether or not the waiter has actually parked
// when the channel closes.
func TestRingHandoffCancelDuringPark(t *testing.T) {
	r := newRingHandoff(1, 1)
	cancel := make(chan struct{})
	recvOK := make(chan bool, 1)
	go func() {
		_, ok := r.recv(cancel)
		recvOK <- ok
	}()
	time.Sleep(5 * time.Millisecond) // give the consumer time to park
	close(cancel)
	select {
	case ok := <-recvOK:
		if ok {
			t.Fatal("recv on an empty canceled ring reported data")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked consumer did not wake on cancel")
	}

	if !r.trySend(0, []item{{}}) {
		t.Fatal("could not fill the depth-1 shard")
	}
	done := make(chan struct{})
	sendOK := make(chan bool, 1)
	go func() {
		sendOK <- r.send(0, []item{{}}, done)
	}()
	time.Sleep(5 * time.Millisecond) // give the producer time to park
	close(done)
	select {
	case ok := <-sendOK:
		if ok {
			t.Fatal("send on a full ring succeeded after done closed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked producer did not wake on done")
	}
}

// TestEvictThenCancelUnwindsParkedProducers is eviction in the host's order:
// the consumer stops pulling while map workers park on their full edge, and
// the owner evicts the tenant, then cancels. Evict reaches only Acquire; the
// Cancel closes the stages' latches, which wake the parked producers.
func TestEvictThenCancelUnwindsParkedProducers(t *testing.T) {
	pool := NewSharedPool(2)
	if err := pool.Admit("victim", 2); err != nil {
		t.Fatal(err)
	}
	graph, opts := poolWorkload(t, "evict-then-cancel", 2, 1e-5, 400)
	opts.Pool, opts.PoolTenant = pool, "victim"
	p, err := New(graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Next(); err != nil {
		t.Fatal(err)
	}
	// The consumer pulls no more: wait for a map worker to park on its edge.
	ring := p.root.(*batchIter).in.(*mapIter).out.(*ringHandoff)
	for deadline := time.Now().Add(10 * time.Second); ring.notFull.sleepers.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no map worker parked on the full edge")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Evict("victim")
	p.Cancel()
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close after evict and cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close stranded the parked producers of an evicted, canceled tenant")
	}
	if release, ok := pool.Acquire("victim", nil); ok {
		release()
		t.Fatal("an evicted tenant's Acquire succeeded")
	}
}

// TestEvictionDoesNotStrandParkedConsumer is the engine-level half of the
// same regression: a tenant whose only slot is held by a wedged worker has
// its real workers blocked in Acquire and its root consumer parked on an
// empty ring. Evicting the tenant must unwind the whole pipeline — failed
// acquires wind the workers down, the closing edge wakes the consumer — so
// Drain returns instead of hanging.
func TestEvictionDoesNotStrandParkedConsumer(t *testing.T) {
	pool := NewSharedPool(1)
	if err := pool.Admit("victim", 1); err != nil {
		t.Fatal(err)
	}
	// A stand-in for a wedged worker: holds the tenant's only slot for the
	// whole test, so the pipeline's workers all block in Acquire.
	wedged, ok := pool.Acquire("victim", nil)
	if !ok {
		t.Fatal("wedged acquire aborted")
	}

	graph, opts := poolWorkload(t, "strand-victim", 2, 1e-4, 40)
	opts.Pool, opts.PoolTenant = pool, "victim"
	p, err := New(graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		_, _, derr := p.Drain(0)
		result <- derr
	}()
	// Let the workers block in Acquire and the consumer park on the ring.
	time.Sleep(20 * time.Millisecond)
	pool.Evict("victim")
	select {
	case <-result:
		// Unwound — with or without an error; the regression is the hang.
	case <-time.After(10 * time.Second):
		t.Fatal("eviction stranded the parked consumer")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close after eviction: %v", err)
	}
	wedged() // settles against the reclaim debt
}

// TestHandoffKindsAgree drains the canonical chain under both edge
// implementations and requires identical element/example totals — the A/B
// baseline only means something if the two edges are observationally
// equivalent.
func TestHandoffKindsAgree(t *testing.T) {
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	wantBatches := total / 8
	for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
		fs, reg := testSetup(t)
		p, err := New(canonicalGraph(t, 4), Options{FS: fs, UDFs: reg, Handoff: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		elements, examples, err := p.Drain(0)
		p.Close()
		if err != nil {
			t.Fatalf("%s: drain: %v", kind, err)
		}
		if elements != wantBatches || examples != total {
			t.Fatalf("%s: got %d elements / %d examples, want %d / %d",
				kind, elements, examples, wantBatches, total)
		}
	}
	fs, reg := testSetup(t)
	if _, err := New(canonicalGraph(t, 1), Options{FS: fs, UDFs: reg, Handoff: "bogus"}); err == nil {
		t.Fatal("bogus Handoff kind accepted")
	}
}
