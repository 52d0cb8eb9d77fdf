package engine

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// item carries an element or a terminal error through worker channels.
type item struct {
	elem data.Element
	err  error
}

// ---------------------------------------------------------------------------
// Chunked handoff plumbing
//
// Parallel stages pass []item chunks through their stage edges instead of
// single items, amortizing the edge's synchronization (futex wakeups, memory
// barriers) over the chunk. A worker's chunk closes at whichever limit comes
// first: about handoffQuantum of the worker's own work, Options.ChunkSize
// elements, or chunkBytes of payload. A 60 ns/element stage of 1 000-byte
// records therefore hands off full-size chunks, while a 1 ms/element stage
// hands off every element — so its workers share the input evenly and the
// consumer sees the first element after one element's time, not after
// ChunkSize of them — and a fast map that inflates records to 32 KB hands
// off two at a time. A producer's edge holds at most edgeDepth chunks plus
// the one it is filling, so its payload is bounded by (edgeDepth + 1) ×
// (chunkBytes + one element), whatever the element size. (A map fills its
// chunk in place, so a run it inflates is sized by the bytes per element of
// the chunk before it.)
//
// Every stage hands its consumer runs (stage.pull): a stage fed by an edge
// (source, a Map or Filter on workers, prefetch) hands out runs of the chunk
// in hand, and every other stage pulls a run from its child and works on it
// in place — a UDF worker pulls a run into its chunk's room and commits what
// its UDF kept, an inline Map or Filter hands on what it kept of its run
// (one applier serves both), a Shuffle swaps it through its buffer, a Batch
// fills its minibatch from runs. Counters, admission ticks and the progress
// tap count a run with one add. Per-element Next is left only at the root
// (Pipeline.Next), a pull of one. Chunk slices are recycled through a pool:
// the consumer returns a drained chunk, the next producer reuses it.

// handoffQuantum is the amount of a worker's work one handoff carries. It
// is far above an edge operation's cost (tens of ns uncontended, a few µs
// when a waiter must be woken), so chunking still amortizes it away, and far
// below a minibatch's time wherever the stage's cost matters at all.
const handoffQuantum = time.Millisecond

// chunkBytes is the payload one handoff carries at most (give or take its
// last element), so an edge of decoded records stays in cache between the
// map's write and its consumer's read. Copying 64 KiB takes several µs, so
// a chunk this size still amortizes the edge's cost.
const chunkBytes = 64 << 10

// The settle rule's thresholds (Settled, tracerun.go), a time where it can
// be in quanta: a trace settles on a window of completions, after a warm-up
// of at least settleWarmup, whose two halves each span settleMinHalf, hold
// settleMinPerHalf samples and agree in rate within settleTolerance, once
// that rate is known to a quarter of the tolerance.
const (
	settleWarmup     = 3 * handoffQuantum
	settleMinHalf    = 17 * handoffQuantum
	settleMinPerHalf = 4
	settleTolerance  = 0.10
)

// chunkPool holds drained chunks, each in a box: a *[]item fits in the pool's
// interface value as it is, where a []item would be copied to the heap — one
// object per recycled chunk. boxPool keeps the boxes getChunk emptied for the
// next putChunk, so a steady get/put cycle allocates nothing.
var chunkPool, boxPool sync.Pool

// getChunk returns an empty chunk of at least the given capacity.
func getChunk(capacity int) []item {
	if v := chunkPool.Get(); v != nil {
		box := v.(*[]item)
		c := *box
		*box = nil
		boxPool.Put(box)
		if cap(c) >= capacity { // a smaller one would regrow as it fills
			return c
		}
	}
	return make([]item, 0, capacity)
}

func putChunk(c []item) {
	clear(c) // drop element references so payloads can be collected
	box, _ := boxPool.Get().(*[]item)
	if box == nil {
		box = new([]item)
	}
	*box = c[:0]
	chunkPool.Put(box)
}

// chunkEmitter accumulates items on the producer side and flushes full
// chunks to the stage's handoff edge, aborting when done closes. When sl is
// set, a flush that would block releases the held pool slot first: a worker
// must never sit on a shared-pool slot while waiting for edge room, both
// because the slot buys CPU the worker is not using and because a tenant
// whose sources hold every slot while its maps wait for one would deadlock
// against itself. (For a prefetch goroutine, sl is its sequential gate's
// slot — the same invariant, one level up.)
//
// A worker that calls ready before producing each element gets time-sized
// chunks: ready starts a clock at the chunk's first element (after any wait
// for a pool slot), flush stops it before sending (so a blocked send is not
// counted either) and sets the next chunk to handoffQuantum of work at the
// rate just measured, but to no more than chunkBytes at the bytes per
// element just seen; commit sends a chunk once its payload reaches
// chunkBytes.
// The rate can go stale — a source sized inside its device's burst, then
// throttled — so commit re-reads the clock whenever it carries the fill to or
// past a power of two (six reads at most for 64 elements added one at a
// time, none at a cap of one) and sends a chunk a quantum old as it is: at
// a steady pace nothing is held past two quanta. A chunk that took a
// quantum or more also ends with the worker yielding its P once (see
// flush). An emitter whose owner never calls ready keeps size fixed, reads
// no clock and sends by count alone: prefetch sizes its chunks to its
// buffer.
type chunkEmitter struct {
	p     *Pipeline // retires a chunk nobody will take
	h     handoff
	w     int // producer index: which ring shard this emitter owns
	done  <-chan struct{}
	size  int // elements in the next chunk, 1..max
	max   int // Options.ChunkSize
	sl    *slot
	buf   []item
	bytes int64            // payload bytes in buf
	since time.Time        // when the chunk in hand began filling; zero until ready runs
	clock func() time.Time // time.Now outside tests
}

// emitter returns a time-sized emitter for worker w of a parallel stage. It
// starts at one element: the stage's cost is unknown until something has
// been timed, and guessing high would hold the first ChunkSize elements of
// an expensive stage back from the consumer.
func (p *Pipeline) emitter(h handoff, w int, done <-chan struct{}, sl *slot) chunkEmitter {
	return chunkEmitter{p: p, h: h, w: w, done: done, size: 1, max: p.chunkSize(), sl: sl, clock: time.Now}
}

// ready is called by a worker before it produces each element. It takes the
// worker's pool slot — a no-op re-check while the slot is held; it re-arms
// after a flush released the slot to make a blocking send — and at a chunk's
// first element looks at the stage's latch and starts the chunk's clock. It
// returns false when the pipeline is shutting down: a worker whose sends
// never block (room on the edge, no pool) learns it nowhere else.
func (ce *chunkEmitter) ready() bool {
	if !ce.sl.acquire() {
		return false
	}
	if len(ce.buf) == 0 && closed(ce.done) {
		return false
	}
	if ce.max > 1 && ce.since.IsZero() { // at a cap of one there is nothing to size
		ce.since = ce.clock()
	}
	return true
}

// room returns the part of the chunk in hand still to fill, never empty: a
// producer writes items there — a stage pulls its child's run straight in —
// and hands them over with commit.
func (ce *chunkEmitter) room() []item {
	if ce.buf == nil {
		ce.buf = getChunk(ce.max)
	}
	return ce.buf[len(ce.buf):ce.size]
}

// commit takes the first n items of the room into the chunk, flushing when
// the chunk is full or, once the chunk's clock runs, holds chunkBytes or has
// aged a quantum. It returns false when the consumer has gone away.
func (ce *chunkEmitter) commit(n int) bool {
	had := len(ce.buf)
	ce.buf = ce.buf[:had+n]
	for i := had; i < len(ce.buf); i++ {
		ce.bytes += ce.buf[i].elem.Size
	}
	if n = len(ce.buf); n >= ce.size || !ce.since.IsZero() && (ce.bytes >= chunkBytes || bits.Len(uint(had)) < bits.Len(uint(n)) && ce.clock().Sub(ce.since) >= handoffQuantum) {
		return ce.flush()
	}
	return true
}

// add commits one item.
func (ce *chunkEmitter) add(it item) bool {
	ce.room()[0] = it
	return ce.commit(1)
}

// flush sends any buffered items, or recycles an empty chunk. Safe to call
// multiple times. A chunk the edge refuses (the stage is shutting down) is
// retired.
func (ce *chunkEmitter) flush() bool {
	if len(ce.buf) == 0 {
		if ce.buf != nil {
			putChunk(ce.buf)
			ce.buf = nil
		}
		return true
	}
	bytes := ce.bytes
	ce.bytes = 0
	yield := false
	if !ce.since.IsZero() {
		took := ce.clock().Sub(ce.since)
		yield = took >= handoffQuantum
		ce.size, ce.since = nextSize(len(ce.buf), took, bytes, ce.max), time.Time{}
	}
	// Fast path: room on the edge, the slot (if any) stays held.
	if ce.h.trySend(ce.w, ce.buf) {
		ce.buf = nil
		if yield {
			// A quantum of work without blocking: let the consumer just
			// fed run now. As many busy workers as Ps, with input and edge
			// room to spare, otherwise leave every other stage waiting for
			// sysmon to preempt one (10-20 ms), and the root delivers in
			// lumps of that size.
			runtime.Gosched()
		}
		return true
	}
	if ce.sl != nil {
		ce.sl.release() // blocking send: give the slot back first
	}
	if ce.h.send(ce.w, ce.buf, ce.done) {
		ce.buf = nil
		return true
	}
	ce.p.retire(ce.buf)
	ce.buf = nil
	return false
}

// nextSize sizes a stage's next run of work after one of n elements that took
// took with bytes of payload: about handoffQuantum of work at that rate, no
// more than chunkBytes at those bytes per element (0: no bound), 1..limit.
func nextSize(n int, took time.Duration, bytes int64, limit int) int {
	size := int64(limit)
	if took > 0 {
		size = min(size, int64(n)*int64(handoffQuantum)/int64(took))
	}
	if bytes > 0 {
		size = min(size, int64(n)*chunkBytes/bytes)
	}
	return int(max(1, size))
}

// assembly returns an empty buffer of capacity n for a payload a stage
// assembles by copying (Batch, Zip): pooled when the pipeline pools.
func (p *Pipeline) assembly(n int) []byte {
	if p.pool {
		return data.GetBuf(n)[:0]
	}
	return make([]byte, 0, n)
}

// retire releases the payloads of items no consumer will take, so their
// pooled buffers go back to the pool instead of to the garbage collector.
func (p *Pipeline) retire(items []item) {
	for i := range items {
		p.releasePayload(&items[i].elem)
	}
}

// chunkReceiver drains chunks on the consumer side, handing out runs of the
// chunk in hand and recycling emptied chunk slices. A blocked receive also
// wakes on the pipeline's cancel channel, so a consumer never hangs on
// workers that were canceled (or are wedged and will never close the edge);
// the resulting io.EOF is translated to the cancellation cause at the
// pipeline root. A receive that has to block first releases the consuming
// segment's sequential-admission slot (g.unblock) — the consumer-side half
// of the "never hold a slot across a blocking handoff" invariant — and takes
// it back once data arrives.
type chunkReceiver struct {
	pending []item
	pos     int
	// lump, when set, is raised for every chunk taken off the edge: the
	// progress tap of the consuming segment samples arrivals, not elements
	// (tracerun.go). Nil outside a trace run under a stop rule.
	lump *bool
}

// pull moves up to len(dst) items from the chunk in hand into dst and
// returns how many. Only an empty hand fetches the next chunk, so a pull
// never spans two chunks and never waits for more once it has something. A
// drained chunk is recycled at once.
func (cr *chunkReceiver) pull(dst []item, h handoff, p *Pipeline, g *seqGate) (int, error) {
	for cr.pos == len(cr.pending) {
		c, ok := h.tryRecv()
		if !ok {
			g.unblock()
			c, ok = h.recv(p.cancelCh)
			if !g.reacquire() || !ok {
				p.retire(c) // drained, or shutting down: a chunk taken then is abandoned
				return 0, io.EOF
			}
		}
		cr.pending, cr.pos = c, 0
		if cr.lump != nil {
			*cr.lump = true
		}
	}
	n := copy(dst, cr.pending[cr.pos:])
	if cr.pos += n; cr.pos == len(cr.pending) {
		putChunk(cr.pending)
		cr.pending, cr.pos = nil, 0
	}
	return n, nil
}

// discard retires what the consumer never took: the rest of the chunk in
// hand and every chunk left on the edge. Called from the stage's Close once
// its workers have exited.
func (cr *chunkReceiver) discard(p *Pipeline, h handoff) {
	p.retire(cr.pending[cr.pos:])
	cr.pending, cr.pos = nil, 0
	for c, ok := h.tryRecv(); ok; c, ok = h.tryRecv() {
		p.retire(c)
	}
}

// stage is an operator as its consumer pulls it.
type stage interface {
	// pull moves up to len(dst) items, at least one, into dst and returns
	// how many, as soon as it has any. At the end of the stream it returns
	// io.EOF and no other error: a failure travels as an item, the last of
	// its run and the last its producer sends.
	pull(dst []item) (int, error)
	Close() error
}

// edge is the consumer end of a stage whose workers hand off over a stage
// edge — source, map, prefetch. It starts the workers on the first pull,
// hands out runs of the chunk in hand, and on Close winds the workers down
// and retires what the consumer never took.
type edge struct {
	p       *Pipeline
	handle  *trace.NodeStats
	gate    *seqGate   // the consuming segment's admission gate
	latch   *doneLatch // closed to stop the workers
	startup func()     // the stage's start: calls launch

	once    sync.Once
	started bool
	out     handoff
	wg      sync.WaitGroup
	recv    chunkReceiver
}

func (e *edge) pull(dst []item) (int, error) {
	e.once.Do(e.startup)
	if !e.started {
		return 0, io.EOF // closed before it was ever pulled
	}
	return e.recv.pull(dst, e.out, e.p, e.gate)
}

// launch opens the edge to n producers, depth chunks each, and runs work(w)
// for each on its own goroutine; the edge closes once all have returned.
func (e *edge) launch(n, depth int, work func(w int)) {
	e.started = true
	e.out = e.p.newHandoff(n, depth)
	e.wg.Add(n)
	for w := range n {
		go func() {
			defer e.wg.Done()
			work(w)
		}()
	}
	go func() {
		e.wg.Wait()
		e.out.close()
	}()
}

// stop closes the latch, which wakes workers parked on the edge, wakes those
// blocked in Acquire, waits for them, and retires what the consumer never
// took.
func (e *edge) stop() {
	e.once.Do(func() {}) // never started: it never will
	e.p.stopLatch(e.latch)
	if !e.started {
		return
	}
	if e.p.opts.Pool != nil {
		e.p.opts.Pool.Interrupt()
	}
	e.wg.Wait()
	e.recv.discard(e.p, e.out)
	if e.handle != nil {
		trace.AddHandoff(e.handle, e.out.stats())
	}
}

// ---------------------------------------------------------------------------
// Source / Interleave

// sourceIter reads TFRecord shards. With parallelism 1 it reads files
// sequentially; with parallelism p it interleaves p concurrent file streams
// (the paper's Interleave-parallelized TFRecordDataset). Workers hand
// records downstream in chunks and count into per-worker shards, so the
// per-record path has no channel operation, no atomic, and (untraced) no
// clock read.
type sourceIter struct {
	edge
	key  resumeKey
	cat  data.Catalog
	par  int
	seed uint64
	// views: records are read-only views of the connector's own storage
	// where the reader can serve them (Pipeline.storageViews), not copies.
	views bool
	// init is the resume entry consumed at build time after a live
	// reconfiguration: the files (and mid-file offsets) the predecessor
	// tree's workers had not finished, replacing the full catalog.
	init *sourceResume

	fileCh  chan fileTask
	nextIdx int64

	// parked collects the tasks quiescing workers abandoned: the in-flight
	// file with its exact record-boundary offset, or a task pulled but
	// never opened.
	capMu  sync.Mutex
	parked []fileTask
}

func newSource(p *Pipeline, key resumeKey, cat data.Catalog, par int, handle *trace.NodeStats, seed uint64, gate *seqGate) *sourceIter {
	s := &sourceIter{edge: edge{p: p, handle: handle, gate: gate, latch: p.iterLatch()},
		key: key, cat: cat, par: par, seed: seed, views: p.storageViews[key.name]}
	s.startup = s.start
	if sr, ok := takeResume[*sourceResume](p, key); ok {
		s.init = sr
		s.nextIdx = sr.nextIdx
	}
	p.track(s)
	return s
}

// tasks is the stream the source was built to read: its resume entry, or
// else the whole catalog.
func (s *sourceIter) tasks() []fileTask {
	if s.init != nil {
		return s.init.tasks
	}
	files := s.cat.FileNames()
	tasks := make([]fileTask, len(files))
	for i, f := range files {
		tasks[i] = fileTask{path: f}
	}
	return tasks
}

func (s *sourceIter) start() {
	tasks := s.tasks()
	s.fileCh = make(chan fileTask, len(tasks))
	for _, t := range tasks {
		s.fileCh <- t
	}
	close(s.fileCh)
	s.launch(s.par, s.p.depth, s.worker)
}

// park records a task a quiescing worker abandoned, for capture.
func (s *sourceIter) park(t fileTask) {
	s.capMu.Lock()
	s.parked = append(s.parked, t)
	s.capMu.Unlock()
}

// capture implements resumable. It runs at the quiesce barrier, after all
// workers have exited (root EOF means every edge closed and drained, which
// happens only after wg.Wait), so the parked list is final and the
// undistributed remainder of fileCh can be drained without contention.
func (s *sourceIter) capture(rs resumeState) {
	sr := &sourceResume{nextIdx: atomic.LoadInt64(&s.nextIdx)}
	s.capMu.Lock()
	sr.tasks = append(sr.tasks, s.parked...)
	s.capMu.Unlock()
	if s.started {
		for t := range s.fileCh {
			sr.tasks = append(sr.tasks, t)
		}
	} else {
		// Never pulled this round: what it was built to read is still the
		// full remaining stream.
		sr.tasks, sr.fromStart = append(sr.tasks, s.tasks()...), s.init == nil
	}
	rs[s.key] = sr
}

func (s *sourceIter) worker(w int) {
	sl := s.p.slot(s.latch.ch)
	defer sl.release()
	em := s.p.emitter(s.out, w, s.latch.ch, &sl)
	defer em.flush()
	// One record reader serves all of this worker's files, and where the
	// pipeline pools so does one connector reader, reopened on every shard
	// after the first: opening a shard allocates nothing. The unpooled
	// reference opens a reader per shard. The deferred Close flushes the
	// last file's read accounting, whichever path abandons it. On a chain
	// that only reads its records before batching them, from a reader that
	// can serve them, records are read-only slices of the connector's own
	// storage (s.views); otherwise each is read into a buffer from the pool,
	// when the pipeline pools, which whoever retires it returns.
	rr := data.NewRecordReader(nil)
	rr.SetPooling(s.p.pool)
	var r connector.Reader
	defer func() {
		if r != nil {
			r.Close()
		}
	}()
	tr := tracker{h: s.handle}
	defer tr.flush()
	rt := s.p.retrier(s.key.name, &tr, s.latch.ch, s.seed^uint64(w+1)*0x9e3779b97f4a7c15)
	sm := trace.NewSampler(s.p.sampleEvery())
	modelCPU := s.p.opts.WorkScale > 0
	// Per-record parse cost: framing checksum work, modeled as a small
	// fixed CPU cost plus a per-byte term for the CRC pass.
	const parsePerByte = 0.3e-9 // ~3.3 GB/s checksum throughput
	const parsePerElem = 1.5e-6 // record framing bookkeeping
	// Sequence numbers are reserved in ChunkSize blocks so the shared
	// counter is touched once per block instead of once per record.
	idxBlock := int64(s.p.chunkSize())
	var idxNext, idxEnd int64
	// open moves r to the task's shard. A shard a quiesce barrier parked
	// resumes at its record boundary, its prefix neither served nor
	// observed again.
	open := func(task fileTask) (err error) {
		if r != nil && s.p.pool {
			return r.Reopen(task.path, task.offset)
		}
		if r != nil {
			r.Close()
		}
		if r, err = s.p.opts.FS.Open(task.path); err != nil || task.offset == 0 {
			return err
		}
		return r.Reopen(task.path, task.offset)
	}
	// stream reads one shard to EOF, retrying transiently faulting opens
	// and record reads under the pipeline's retry policy. It reports
	// whether the worker should continue with the next file; on any
	// surfaced error the terminal item has already been emitted.
	stream := func(task fileTask) bool {
		if err := rt.do("open", func() error { return open(task) }); err != nil {
			if err != errInterrupted {
				em.add(item{err: fmt.Errorf("source: %w", err)})
			}
			return false
		}
		rr.Reset(r)
		viewing := s.views && rr.UseViews()
		for {
			if s.p.quiesce.Load() {
				// Quiesce barrier: park the file at its exact record
				// boundary — the same offsets the retry policy rewinds to —
				// and exit. The deferred emitter flush delivers the items
				// already in hand, so nothing in flight is dropped.
				s.park(fileTask{path: task.path, offset: r.Offset()})
				return false
			}
			// Reading records is this worker's CPU work: it happens under a
			// pool slot, yielded every chunk so shares enforce at chunk
			// granularity.
			if !em.ready() {
				return false
			}
			start := tr.timer(&sm)
			var rec []byte
			err := rt.do("read", func() error {
				off := r.Offset()
				var e error
				rec, e = rr.Next()
				if e != nil && e != io.EOF {
					// Rewind so a retry replays the same framed record from
					// its header; the re-served bytes are re-observed, like
					// a real re-fetch.
					r.Rewind(off)
				}
				return e
			})
			if err == io.EOF {
				return true
			}
			if err != nil {
				if err != errInterrupted {
					em.add(item{err: err})
				}
				return false
			}
			if idxNext == idxEnd {
				idxEnd = atomic.AddInt64(&s.nextIdx, idxBlock)
				idxNext = idxEnd - idxBlock
			}
			e := data.Element{
				Payload:  rec,
				ReadOnly: viewing,
				Size:     int64(len(rec)),
				Count:    1,
				Index:    idxNext,
			}
			idxNext++
			if modelCPU {
				s.p.accountCPU(&tr.ls, parsePerByte*float64(len(rec))+parsePerElem)
			}
			tr.produced(e)
			tr.lap(start, &sm)
			if !em.add(item{elem: e}) {
				return false
			}
			if em.buf == nil && !sl.yield() { // the chunk just went out
				return false
			}
		}
	}
	for task := range s.fileCh {
		if s.p.quiesce.Load() {
			s.park(task)
			return
		}
		if !stream(task) {
			return
		}
	}
}

func (s *sourceIter) Close() error {
	s.p.untrack(s)
	s.stop()
	return nil
}

// ---------------------------------------------------------------------------
// Map and Filter

// applier applies one node's UDF to runs in place, inline or on a worker:
// the one place a UDF is called and its modeled CPU charged. A Body is
// called per element under the retry policy, a panic contained as an
// error; a transiently failing Body (its error implements Transient() true)
// is retried with backoff, so it must be idempotent with respect to its
// input. A cost-model UDF (no Body) resizes each element by SizeFactor in a
// Map, and drops it at KeepFraction, by a seeded generator, in a Filter.
type applier struct {
	p   *Pipeline
	u   udf.UDF // its Cost holds only the terms its node's kind applies
	rng uint64  // a cost-model Filter's drops
	tr  tracker
	sm  trace.Sampler
	rt  retrier
}

// init sets a up to apply u for the node name, counting into h; done cuts
// its retry backoffs short.
func (a *applier) init(p *Pipeline, name string, u udf.UDF, h *trace.NodeStats, done <-chan struct{}, seed uint64) {
	// A cost-model run is timed whole, every run; a Body's calls are sampled.
	*a = applier{p: p, u: u, rng: 0x2545f4914f6cdd1d, tr: tracker{h: h}, sm: trace.NewSampler(1)}
	if u.Body != nil {
		a.sm = trace.NewSampler(p.sampleEvery())
	}
	a.rt = p.retrier(name, &a.tr, done, seed)
}

// apply applies the UDF to run in place, compacts what it keeps to the run's
// front, then a failure the run ends with, and returns how many. A Body takes
// the run one element a step, a cost-model UDF in one step; each step is
// made ready (a worker's em.ready; inline, em is nil and a step looks at the
// pipeline's cancel), charged its modeled CPU with one call, and timed when
// sampled. ok is false when the producer must stop: the pipeline is shutting
// down (what was not applied is retired), or the run ends in a failure, the
// UDF's or the one its producer sent.
func (a *applier) apply(run []item, em *chunkEmitter) (kept int, ok bool) {
	n := len(run)
	failed := n > 0 && run[n-1].err != nil // a failure is the last item its producer sends
	if failed {
		n--
	}
	step := n
	if a.u.Body != nil {
		step = 1
	}
	ok = true
	for i := 0; i < n && ok; i += step {
		if ok = em == nil && !closed(a.rt.done) || em != nil && em.ready(); !ok {
			a.p.retire(run[i:n])
			break
		}
		a.tr.consumed(step) // an input counts once it is applied: a cut trace reads produced/consumed
		start := a.tr.timer(&a.sm)
		if a.p.opts.WorkScale > 0 {
			cpu := 0.0
			for _, it := range run[i : i+step] {
				cpu += a.u.Cost.CPUSeconds(it.elem.Size)
			}
			a.p.accountCPU(&a.tr.ls, cpu)
		}
		for j := i; j < i+step && ok; j++ {
			switch keep, err := a.call(&run[j].elem); {
			case err != nil:
				a.p.retire(run[j+1 : n])
				if ok = false; err != errInterrupted {
					run[kept] = item{err: err}
					kept++
				}
			case keep:
				a.tr.produced(run[j].elem)
				run[kept] = run[j]
				kept++
			default:
				a.p.releasePayload(&run[j].elem) // dropped: this stage is the payload's sole owner
			}
		}
		a.tr.lap(start, &a.sm)
	}
	if failed && ok {
		run[kept] = run[n]
		kept++
	}
	clear(run[kept:]) // inputs not kept must not pin their buffers
	return kept, ok && !failed
}

// call applies the UDF to *e in place and reports whether it keeps it. A
// dropped element is left as it came.
func (a *applier) call(e *data.Element) (keep bool, err error) {
	if a.u.Body != nil {
		var out data.Element
		err = a.rt.do("udf", func() error {
			return safeCall(func() (uerr error) {
				out, keep, uerr = a.u.Body(*e)
				return uerr
			})
		})
		if keep && err == nil {
			*e = out
		}
		return keep, err
	}
	if kf := a.u.Cost.KeepFraction; kf < 1 {
		a.rng = a.rng*6364136223846793005 + 1442695040888963407
		if float64(a.rng>>11)/(1<<53) >= kf {
			return false, nil
		}
	}
	switch size := int64(float64(e.Size) * a.u.Cost.SizeFactor); {
	case size == e.Size:
	case e.Payload != nil && size > int64(len(e.Payload)) && a.p.pool:
		// Amplifying UDF (decode-style): grow through the pool and retire
		// the input to the pool (a read-only view stays put), which
		// WithSize's plain make would strand.
		buf := data.GetBuf(int(size))
		clear(buf[copy(buf, e.Payload):])
		a.p.releasePayload(e)
		*e = data.Element{Payload: buf, Size: size, Count: e.Count, Index: e.Index}
	default:
		*e = e.WithSize(size)
	}
	return true, nil
}

// mapIter runs a Map or Filter at parallelism 2 or more on a worker pool.
// Child access is serialized; output order is the workers' completion order
// (tf.data's non-deterministic parallel map). Workers pull a run of inputs
// straight into the chunk in hand with one call under the child lock, apply
// the UDF there lock-free, and hand the chunk on.
type mapIter struct {
	edge
	name  string
	child stage
	u     udf.UDF
	seed  uint64
	// childGate covers the below-map sequential segment, whose stages run
	// on worker goroutines under childMu.
	childGate *seqGate
	childMu   sync.Mutex
	eof       atomic.Bool
}

func (m *mapIter) worker(w int) {
	sl := m.p.slot(m.latch.ch)
	defer sl.release()
	em := m.p.emitter(m.out, w, m.latch.ch, &sl)
	defer em.flush()
	var a applier
	a.init(m.p, m.name, m.u, m.handle, m.latch.ch, m.seed^uint64(w+1)*0xbf58476d1ce4e5b9)
	defer a.tr.flush()
	for !m.eof.Load() {
		// Pull what the chunk in hand has room for — about handoffQuantum of
		// this worker's work, so an expensive UDF's inputs spread evenly over
		// the workers — straight into that room, with one call under the
		// lock. It takes what the child has in hand and never waits for
		// more: a slower child does not keep the inputs from the UDF while
		// the rest trickle in.
		room := em.room()
		m.childMu.Lock()
		n, err := m.child.pull(room)
		if err != nil {
			m.eof.Store(true)
		}
		// Gated sequential stages below this map keep their segment's slot
		// warm between pulls; return it before this worker goes off to apply
		// UDFs under its own slot, or a share-1 tenant would deadlock
		// against itself (UDF acquire waiting on the idle childGate hold).
		m.childGate.unblock()
		m.childMu.Unlock()
		// Apply the UDF to the run in place under a pool slot, returned
		// before the next pull so shares enforce per chunk. The pull above
		// holds no slot — it is mostly a channel receive.
		kept, ok := a.apply(room[:n], &em)
		if !em.commit(kept) || !ok {
			return
		}
		sl.release()
	}
}

func (m *mapIter) Close() error {
	m.stop()
	m.childGate.close()
	return m.child.Close()
}

// inlineIter runs a Map or Filter at parallelism 1 on its consumer's
// goroutine, stopping on the pipeline's cancel. It pulls runs of about
// handoffQuantum of its own measured work (nextSize, as a worker sizes its
// chunks) and raises its segment's progress lump once per run it applies,
// so a planning trace samples it at a worker's grain.
type inlineIter struct {
	p     *Pipeline
	child stage
	g     *seqGate
	lump  *bool
	size  int // elements in the next run, 1..ChunkSize
	a     applier
}

// pull pulls a run into dst, applies the UDF to it in place and hands on what
// it keeps, pulling again while a run keeps nothing.
func (f *inlineIter) pull(dst []item) (int, error) {
	// The UDF is CPU work on the consumer goroutine: it runs under the segment's
	// sequential-admission slot, ticking once per run so shares enforce per chunk.
	if !f.g.enter() {
		return 0, io.EOF
	}
	defer f.g.exit()
	for {
		n, err := f.child.pull(dst[:min(len(dst), f.size)])
		if err != nil {
			return 0, err
		}
		if !f.g.tick(n) {
			f.p.retire(dst[:n])
			return 0, io.EOF
		}
		start := time.Now()
		kept, ok := f.a.apply(dst[:n], nil)
		f.size = nextSize(n, time.Since(start), 0, f.p.chunkSize())
		if f.lump != nil {
			*f.lump = true
		}
		if kept > 0 {
			return kept, nil
		}
		if !ok {
			return 0, io.EOF // shutting down
		}
	}
}

func (f *inlineIter) Close() error {
	f.a.tr.flush()
	return f.child.Close()
}

// ---------------------------------------------------------------------------
// Shuffle

// shuffleIter hands out a uniformly drawn element of a buffer of size and
// puts the next input in its place: it fills the buffer first, then swaps
// each element of a run it pulls against one draw, and once the child is
// done it hands out draws from what is left. So the order it delivers
// depends on the seed alone, not on the lengths of the runs it pulls.
type shuffleIter struct {
	p     *Pipeline
	child stage
	size  int
	g     *seqGate
	tr    tracker
	rng   *stats.RNG
	buf   []item
	eof   bool
}

func newShuffleIter(p *Pipeline, child stage, size int, handle *trace.NodeStats, rng *stats.RNG, g *seqGate) *shuffleIter {
	return &shuffleIter{p: p, child: child, size: size, g: g, tr: tracker{h: handle}, rng: rng}
}

// pull fills the buffer with dst as the fill's scratch.
func (s *shuffleIter) pull(dst []item) (int, error) {
	if !s.g.enter() {
		return 0, io.EOF
	}
	defer s.g.exit()
	start := s.tr.timer(nil)
	n := 0
	for n == 0 && !s.eof {
		fill, run := len(s.buf) < s.size, dst
		if fill {
			run = dst[:min(len(dst), s.size-len(s.buf))]
		}
		k, err := s.child.pull(run)
		if err != nil {
			s.eof = true
			break
		}
		s.tr.consumed(k)
		if !s.g.tick(k) {
			s.p.retire(run[:k])
			return 0, io.EOF
		}
		failed := run[k-1]
		if failed.err != nil {
			k--
		}
		if fill {
			s.buf = append(s.buf, run[:k]...)
		}
		for ; !fill && n < k; n++ {
			i := s.rng.Intn(len(s.buf))
			dst[n], s.buf[i] = s.buf[i], dst[n]
		}
		if failed.err != nil {
			dst[n] = failed
			n++
		}
	}
	for ; s.eof && n < len(dst) && len(s.buf) > 0; n++ {
		i, last := s.rng.Intn(len(s.buf)), len(s.buf)-1
		dst[n], s.buf[i], s.buf[last] = s.buf[i], s.buf[last], item{}
		s.buf = s.buf[:last]
	}
	if n == 0 {
		return 0, io.EOF
	}
	s.tr.lap(start, nil)
	s.tr.handed(dst[:n])
	return n, nil
}

// Close retires what the buffer still holds: a shuffle closed mid-stream
// owns those elements, and their pooled buffers go back to the pool.
func (s *shuffleIter) Close() error {
	s.p.retire(s.buf)
	s.buf = nil
	s.tr.flush()
	return s.child.Close()
}

// ---------------------------------------------------------------------------
// Repeat

// repeatIter restarts the child subtree count times (-1 = forever) by
// rebuilding it from the factory. Cache nodes below keep their contents via
// the pipeline-level cache store, so epoch 2 of a cached pipeline serves
// from memory.
type repeatIter struct {
	p       *Pipeline
	key     resumeKey
	factory func() (stage, error)
	count   int64
	tr      tracker

	child stage
	epoch int64 // number of epochs started
}

func newRepeatIter(p *Pipeline, key resumeKey, factory func() (stage, error), count int64, handle *trace.NodeStats) *repeatIter {
	r := &repeatIter{p: p, key: key, factory: factory, count: count, tr: tracker{h: handle}}
	if rr, ok := takeResume[repeatResume](p, key); ok {
		if rr.inProgress {
			// The barrier interrupted epoch N: start one epoch back so the
			// first pull rebuilds the child — which consumes the source's
			// partial resume entry and continues epoch N where it stopped.
			r.epoch = rr.epoch - 1
		} else {
			r.epoch = rr.epoch
		}
	}
	p.track(r)
	return r
}

func (r *repeatIter) pull(dst []item) (int, error) {
	for {
		if r.child == nil {
			if r.count >= 0 && r.epoch >= r.count {
				return 0, io.EOF
			}
			child, err := r.factory()
			if err != nil {
				dst[0] = item{err: err}
				return 1, nil
			}
			r.child = child
			r.epoch++
		}
		n, err := r.child.pull(dst)
		if err == nil {
			r.tr.passed(dst[:n])
			return n, nil
		}
		if r.p.quiesce.Load() {
			// A quiesce barrier is draining the pipeline: this EOF may
			// be the barrier cut, not true epoch exhaustion. Keep the
			// child open so its sources can be captured, and let the
			// EOF reach the root — the successor tree resumes the
			// epoch. (If the epoch genuinely ended here, the captured
			// source entry is empty and the resumed epoch EOFs
			// immediately, rolling over to the next one.)
			return 0, io.EOF
		}
		r.child.Close()
		r.child = nil
	}
}

// capture implements resumable.
func (r *repeatIter) capture(rs resumeState) {
	rs[r.key] = repeatResume{epoch: r.epoch, inProgress: r.child != nil}
}

func (r *repeatIter) Close() error {
	r.p.untrack(r)
	r.tr.flush()
	if r.child != nil {
		return r.child.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Batch

// batchIter groups size child elements into one minibatch element. The
// output payload is assembled in a pooled buffer, and the child payloads it
// copied out of are retired to their owners or the pool, closing the
// per-record allocation loop.
type batchIter struct {
	p    *Pipeline
	in   stage
	run  []item // where a pull of in lands: a run is never longer than a chunk
	size int
	g    *seqGate
	tr   tracker
	eof  bool
	// lastCap remembers the previous batch payload's final capacity so the
	// next batch's buffer request covers it up front: after the first few
	// batches the assembly stops regrowing (a regrown buffer strands the
	// pooled one and its odd capacity is rejected by PutBuf).
	lastCap int
}

func newBatchIter(p *Pipeline, child stage, size int, handle *trace.NodeStats, g *seqGate) *batchIter {
	return &batchIter{p: p, in: child, run: make([]item, min(size, p.chunkSize())), size: size, g: g, tr: tracker{h: handle}}
}

// pull hands out one minibatch.
func (b *batchIter) pull(dst []item) (int, error) {
	if b.eof {
		return 0, io.EOF
	}
	// Batch assembly (payload concatenation) is consumer-side CPU work; it
	// runs under the segment's sequential-admission slot like filter and
	// shuffle.
	if !b.g.enter() {
		return 0, io.EOF
	}
	defer b.g.exit()
	start := b.tr.timer(nil)
	var out data.Element
	var payload []byte
	for filled := 0; filled < b.size; {
		n, err := b.in.pull(b.run[:min(len(b.run), b.size-filled)])
		if err != nil {
			b.eof = true
			break
		}
		run := b.run[:n]
		if !b.g.tick(n) {
			b.p.retire(run)
			return 0, io.EOF
		}
		b.tr.consumed(n)
		for i := range run {
			if run[i].err != nil {
				dst[0] = run[i] // the run's last item
				return 1, nil
			}
			e := &run[i].elem
			if filled+i == 0 {
				out.Index = e.Index
			}
			out.Size += e.Size
			out.Count += e.Count
			if e.Payload != nil {
				if payload == nil {
					// Headroom above size*first-element avoids an append
					// regrowth when later records run larger than the first.
					payload = b.p.assembly(max(b.lastCap, b.size*len(e.Payload)*9/8))
				}
				payload = append(payload, e.Payload...)
				// Copied out: retire the child payload — a pooled buffer
				// back to the pool; a read-only view stays put.
				b.p.releasePayload(e)
			}
		}
		clear(run)
		filled += n
	}
	b.tr.lap(start, nil)
	if out.Count == 0 {
		if payload != nil && b.p.pool {
			data.PutBuf(payload)
		}
		return 0, io.EOF
	}
	if cap(payload) > b.lastCap {
		b.lastCap = cap(payload)
	}
	out.Payload = payload
	b.tr.produced(out)
	dst[0] = item{elem: out}
	return 1, nil
}

func (b *batchIter) Close() error {
	b.tr.flush()
	return b.in.Close()
}

// ---------------------------------------------------------------------------
// Prefetch

// prefetchIter decouples producer and consumer with a bounded buffer filled
// by a background goroutine — the software-pipelining operator that overlaps
// input processing with model steps. The buffer is chunked like the worker
// stages, but sized so that the edge's chunk budget stays within BufferSize;
// the goroutine's chunk in hand and the receiver's pending chunk ride outside
// it, so lookahead is bounded by BufferSize plus two chunk remnants. A
// partial chunk is flushed whenever the consumer is starving, so chunking
// never delays time-to-first-element the way a full-chunk wait would.
type prefetchIter struct {
	edge
	child stage
	size  int
	// childGate covers the sequential stages the prefetch goroutine drives
	// below this point.
	childGate *seqGate
}

func newPrefetchIter(p *Pipeline, child stage, size int, handle *trace.NodeStats, latch *doneLatch, gate, childGate *seqGate) *prefetchIter {
	pf := &prefetchIter{edge: edge{p: p, handle: handle, gate: gate, latch: latch}, child: child, size: size, childGate: childGate}
	pf.startup = pf.start
	return pf
}

func (p *prefetchIter) start() {
	// Budget BufferSize elements across the channel, the emitter's partial
	// chunk, and the receiver's pending chunk: chunk at most size/4 so at
	// least a couple of chunks fit, and reserve two chunk slots (emitter +
	// receiver) out of the channel depth.
	cs := max(1, min(p.p.chunkSize(), p.size/4))
	p.launch(1, max(1, p.size/cs-2), func(int) { p.produce(cs) })
}

// produce is the prefetch goroutine: it drives the stages below, pulling
// their runs straight into the chunk in hand, and hands the chunks on at cs
// elements.
func (p *prefetchIter) produce(cs int) {
	defer p.childGate.close()
	em := chunkEmitter{p: p.p, h: p.out, w: 0, done: p.latch.ch, size: cs, max: cs}
	if p.childGate != nil {
		// A blocking flush must not sit on the sequential segment's
		// admission slot (same invariant as the worker emitters).
		em.sl = &p.childGate.sl
	}
	defer em.flush()
	tr := tracker{h: p.handle}
	defer tr.flush()
	// The prefetch stage is often the pipeline root, so live interval
	// samplers read its counters; publish far more often than the
	// sequential flush interval — this goroutine is already decoupled
	// from the consumer, so the extra flushes are off the serving path.
	const flushEvery = 16
	flushIn := flushEvery
	for {
		room := em.room()
		n, err := p.child.pull(room)
		if err != nil {
			return
		}
		tr.passed(room[:n])
		if flushIn -= n; flushIn <= 0 {
			flushIn = flushEvery
			tr.flush()
		}
		failed := room[n-1].err != nil // read before commit hands the room on
		// A full chunk goes out in commit; so does one the consumer is
		// starving for (edge drained), instead of waiting for it to fill.
		// Only this goroutine sends, so the observed room cannot vanish.
		if !em.commit(n) || failed || p.out.empty() && !em.flush() {
			return
		}
	}
}

func (p *prefetchIter) Close() error {
	p.stop()
	return p.child.Close()
}

// ---------------------------------------------------------------------------
// Cache

// CacheStore holds materialized cache contents keyed by cache node name
// (suffixed with the replica index under outer parallelism, so independent
// replicas never interleave their fills). It
// survives subtree rebuilds (Repeat epochs) within one pipeline, and — when
// passed explicitly via Options.Caches — re-instantiations of the pipeline
// across graph rewrites, so a tuner's trace/rewrite loop keeps warm caches
// between steps. Entries remember a signature of the chain below their cache
// node; instantiating a graph whose below-cache chain changed invalidates
// the stale contents instead of serving them.
//
// A CacheStore is safe to share across sequentially instantiated pipelines
// (close one before draining the next); concurrent pipelines filling the
// same entry are not supported.
type CacheStore struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	mu       sync.Mutex
	sig      string
	elems    []data.Element // the cache's own copies, each ReadOnly
	complete bool
}

// NewCacheStore returns an empty cache store for sharing across pipeline
// re-instantiations.
func NewCacheStore() *CacheStore {
	return &CacheStore{entries: make(map[string]*cacheEntry)}
}

// entry returns the entry for the named cache node, discarding any previous
// contents materialized under a different below-cache chain signature.
func (cs *CacheStore) entry(name, sig string) *cacheEntry {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	e, ok := cs.entries[name]
	if !ok || e.sig != sig {
		e = &cacheEntry{sig: sig}
		cs.entries[name] = e
	}
	return e
}

// cacheIter passes elements through on the first epoch while recording
// them; once the child reports EOF the entry is complete and subsequent
// instantiations serve from memory without touching the child (or disk).
// The entry holds a copy of each element it records, sized to the payload
// (Element.Clone), and the element itself goes on downstream to be recycled
// like any other: the cache pins the bytes the plan budgeted for it, not
// the buffers they arrived in, and nothing else in the pipeline changes
// mode. A served element is ReadOnly, so no release site hands the cache's
// bytes to the pool. Where an operator above may write its input before the
// next Batch (copies; see viewPlan), the cache serves a copy of its copy
// instead.
type cacheIter struct {
	p       *Pipeline
	key     resumeKey
	seed    uint64
	entry   *cacheEntry
	factory func() (stage, error)
	tr      tracker
	copies  bool

	child   stage
	serving bool
	// passthrough marks a cache resumed (or freshly inserted) mid-epoch by
	// a live reconfiguration: it forwards elements without recording them —
	// filling from mid-stream would materialize only the epoch's tail — and
	// never marks the entry complete. The next full epoch fills normally.
	passthrough bool
	pos         int
}

func newCacheIter(p *Pipeline, key resumeKey, entry *cacheEntry, factory func() (stage, error), handle *trace.NodeStats, srcName string, seed uint64, copies bool) (*cacheIter, error) {
	c := &cacheIter{p: p, key: key, seed: seed, entry: entry, factory: factory, tr: tracker{h: handle}, copies: copies}
	entry.mu.Lock()
	c.serving = entry.complete
	entry.mu.Unlock()
	if cr, ok := takeResume[cacheResume](p, key); ok && c.serving {
		// Resuming a serving cache: continue at the captured position.
		// (applyReconfig guarantees the entry survived the patch — a patch
		// invalidating a mid-serve entry is rejected at the barrier.)
		c.pos = cr.pos
	} else if sr, ok := peekResume[*sourceResume](p, resumeKey{srcName, key.replica}); ok && !c.serving && !sr.fromStart {
		// The stream below resumes mid-epoch: filling from it would
		// materialize only the epoch's tail.
		c.passthrough = true
	}
	if !c.serving && !c.passthrough {
		// A previous pipeline may have filled this entry partially (drain
		// bounded by Take, an early Close, or a quiesce barrier) before it
		// was reused; restart the fill from scratch so elements are never
		// duplicated.
		entry.mu.Lock()
		entry.elems = nil
		entry.mu.Unlock()
	}
	p.track(c)
	return c, nil
}

// capture implements resumable. A serving cache carries its position. So
// does a cache whose fill completed in the interrupted epoch — a prefetch
// above it ran ahead to the child's EOF before the barrier was asked for —
// because every element it recorded has been delivered: the rebuilt cache
// finds the entry complete and must resume serving at its end, not replay
// the epoch from element 0. An interrupted fill leaves no state — the
// rebuilt cache passes through for the rest of the epoch (driven by the
// source resume entry below it).
func (c *cacheIter) capture(rs resumeState) {
	cr := cacheResume{pos: c.pos, seed: c.seed}
	if !c.serving {
		c.entry.mu.Lock()
		complete, n := c.entry.complete, len(c.entry.elems)
		c.entry.mu.Unlock()
		if !complete {
			return
		}
		cr.pos, cr.filled = n, true
	}
	rs[c.key] = cr
}

func (c *cacheIter) pull(dst []item) (int, error) {
	if c.serving {
		if c.p.quiesce.Load() {
			// Barrier cut: stop serving here; capture records pos and the
			// successor tree's cache resumes at it.
			return 0, io.EOF
		}
		c.entry.mu.Lock()
		n := min(len(dst), len(c.entry.elems)-c.pos)
		for i, e := range c.entry.elems[c.pos : c.pos+n] {
			if c.copies && e.Payload != nil {
				e.Payload, e.ReadOnly = append(c.p.assembly(len(e.Payload)), e.Payload...), false
			}
			dst[i] = item{elem: e}
		}
		c.pos += n
		c.entry.mu.Unlock()
		if n == 0 {
			return 0, io.EOF
		}
		c.tr.handed(dst[:n])
		return n, nil
	}
	if c.child == nil {
		child, err := c.factory()
		if err != nil {
			dst[0] = item{err: err}
			return 1, nil
		}
		c.child = child
	}
	n, err := c.child.pull(dst)
	if err != nil {
		// An EOF cut by a quiesce barrier, a Cancel or a Close is not epoch
		// exhaustion: the entry holds only a prefix, so it must not be
		// marked complete. Same for a passthrough cache, which recorded
		// nothing.
		if !c.passthrough && !c.p.stopping() {
			c.entry.mu.Lock()
			c.entry.complete = true
			c.entry.mu.Unlock()
		}
		return 0, io.EOF
	}
	if !c.passthrough {
		c.entry.mu.Lock()
		for _, it := range dst[:n] {
			if it.err == nil {
				kept := it.elem.Clone()
				kept.ReadOnly = true
				c.entry.elems = append(c.entry.elems, kept)
			}
		}
		c.entry.mu.Unlock()
	}
	c.tr.passed(dst[:n])
	return n, nil
}

func (c *cacheIter) Close() error {
	c.p.untrack(c)
	c.tr.flush()
	if c.child != nil {
		return c.child.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Take

type takeIter struct {
	p      *Pipeline
	key    resumeKey
	child  stage
	count  int64
	tr     tracker
	served int64
}

func newTakeIter(p *Pipeline, key resumeKey, child stage, count int64, handle *trace.NodeStats) *takeIter {
	t := &takeIter{p: p, key: key, child: child, count: count, tr: tracker{h: handle}}
	if served, ok := takeResume[int64](p, key); ok {
		t.served = served
	}
	p.track(t)
	return t
}

// capture implements resumable.
func (t *takeIter) capture(rs resumeState) {
	rs[t.key] = t.served
}

func (t *takeIter) pull(dst []item) (int, error) {
	if t.served >= t.count {
		return 0, io.EOF
	}
	n, err := t.child.pull(dst[:min(int64(len(dst)), t.count-t.served)])
	if err != nil {
		return 0, err
	}
	t.served += int64(n)
	t.tr.passed(dst[:n])
	return n, nil
}

func (t *takeIter) Close() error {
	t.p.untrack(t)
	t.tr.flush()
	return t.child.Close()
}

// ---------------------------------------------------------------------------
// Zip / Concat (combining operators)

// zipIter pairs one element from each input branch into one output element.
// The branches are pulled in declared order on the consumer goroutine — zip
// is sequential, like batch: its output order is the contract. The output
// payload concatenates the branch payloads in a pooled buffer, and the
// branch payloads it copied out of are retired (pooled buffers back to the
// pool). Count and Index come from the first branch, which identifies the
// tuple; Size sums over branches. The stream ends at the first branch EOF
// (min semantics), releasing whatever the other branches already delivered
// for the unfinished tuple.
type zipIter struct {
	p        *Pipeline
	children []stage
	g        *seqGate
	tr       tracker
	eof      bool
	pulled   []item // one per branch: where its pull of one lands
}

func newZipIter(p *Pipeline, children []stage, handle *trace.NodeStats, g *seqGate) *zipIter {
	return &zipIter{p: p, children: children, g: g, tr: tracker{h: handle}, pulled: make([]item, len(children))}
}

// pull hands out one tuple.
func (z *zipIter) pull(dst []item) (int, error) {
	if z.eof {
		return 0, io.EOF
	}
	// Tuple assembly (payload concatenation) is consumer-side CPU work; it
	// runs under the segment's sequential-admission slot like batch.
	if !z.g.enter() {
		return 0, io.EOF
	}
	defer z.g.exit()
	start := z.tr.timer(nil)
	for i, c := range z.children {
		if _, err := c.pull(z.pulled[i : i+1]); err != nil {
			z.eof = true
			z.p.retire(z.pulled[:i])
			return 0, io.EOF
		}
		z.tr.consumed(1)
		if !z.g.tick(1) {
			z.p.retire(z.pulled[:i+1])
			return 0, io.EOF
		}
		if failed := z.pulled[i]; failed.err != nil {
			z.p.retire(z.pulled[:i])
			dst[0] = failed
			return 1, nil
		}
	}
	out := data.Element{Count: z.pulled[0].elem.Count, Index: z.pulled[0].elem.Index}
	total := 0
	for i := range z.pulled {
		out.Size += z.pulled[i].elem.Size
		total += len(z.pulled[i].elem.Payload)
	}
	if total > 0 {
		// The exact total is known up front, so the buffer never regrows
		// (a regrown buffer would strand the pooled one).
		payload := z.p.assembly(total)
		for i := range z.pulled {
			payload = append(payload, z.pulled[i].elem.Payload...)
		}
		out.Payload = payload
	}
	z.p.retire(z.pulled) // copied out, or nothing to copy
	clear(z.pulled)
	z.tr.lap(start, nil)
	z.tr.produced(out)
	dst[0] = item{elem: out}
	return 1, nil
}

func (z *zipIter) Close() error {
	z.tr.flush()
	return closeAll(z.children)
}

// concatIter drains its input branches in declared order, passing elements
// through unchanged: branch 2 starts only after branch 1 reports EOF.
// Sequential, on the consumer goroutine, like every combining operator.
type concatIter struct {
	p        *Pipeline
	children []stage
	g        *seqGate
	tr       tracker
	cur      int
}

func newConcatIter(p *Pipeline, children []stage, handle *trace.NodeStats, g *seqGate) *concatIter {
	return &concatIter{p: p, children: children, g: g, tr: tracker{h: handle}}
}

func (c *concatIter) pull(dst []item) (int, error) {
	if !c.g.enter() {
		return 0, io.EOF
	}
	defer c.g.exit()
	for c.cur < len(c.children) {
		n, err := c.children[c.cur].pull(dst)
		if err != nil {
			c.cur++
			continue
		}
		if !c.g.tick(n) {
			c.p.retire(dst[:n])
			return 0, io.EOF
		}
		c.tr.passed(dst[:n])
		return n, nil
	}
	return 0, io.EOF
}

func (c *concatIter) Close() error {
	c.tr.flush()
	return closeAll(c.children)
}

// ---------------------------------------------------------------------------
// Round-robin (outer parallelism)

// roundRobin takes one element from each live replica in turn; a replica
// leaves the rotation at its EOF.
type roundRobin struct {
	replicas []stage
	live     []stage
	next     int // index into live
}

func newRoundRobin(replicas []stage) *roundRobin {
	return &roundRobin{replicas: replicas, live: append([]stage(nil), replicas...)}
}

// pull hands out one element, whatever len(dst): the rotation is per element.
func (r *roundRobin) pull(dst []item) (int, error) {
	for len(r.live) > 0 {
		i := r.next % len(r.live)
		if _, err := r.live[i].pull(dst[:1]); err != nil {
			r.live, r.next = append(r.live[:i], r.live[i+1:]...), i
			continue
		}
		r.next = i + 1
		return 1, nil
	}
	return 0, io.EOF
}

func (r *roundRobin) Close() error { return closeAll(r.replicas) }

// closeAll closes every stage and returns the first error.
func closeAll(stages []stage) error {
	var first error
	for _, s := range stages {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
