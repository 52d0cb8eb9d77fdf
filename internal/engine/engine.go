// Package engine executes pipeline graphs for real: it instantiates the
// serialized program into an Iterator tree (§2.1's Dataset view -> Iterator
// view) backed by goroutine worker pools, bounded channels for prefetching,
// and an in-memory cache store. Every iterator is instrumented with the
// trace package's counters, following the paper's accounting discipline:
// CPU timers stop when an iterator calls into its child, and statistics
// about each yielded element are attributed to its producer.
//
// It is the only executor: the tracer, the planner's one trace, the doctor
// and the benchmark all drain pipelines through it, over synthetic catalogs
// served by a storage connector.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// Options configures pipeline instantiation.
type Options struct {
	// FS is the storage connector serving the source shards. Required.
	// Any connector.Connector works: the simfs adapter, the local-FS
	// backend, or the modeled object store.
	FS connector.Connector
	// UDFs resolves Map/Filter function names. Required if the graph uses
	// UDF nodes.
	UDFs *udf.Registry
	// Collector receives counters; nil disables tracing.
	Collector *trace.Collector
	// WorkScale converts modeled UDF CPU-seconds into accounted (and, with
	// Spin, actually burned) CPU time. Zero disables CPU modeling.
	WorkScale float64
	// Spin makes workers busy-wait for the modeled CPU time, so wallclock
	// throughput reflects the cost model. Tests keep this off.
	Spin bool
	// Seed drives shuffling and any randomized UDFs.
	Seed uint64
	// Handoff selects the stage-edge implementation for parallel stages:
	// HandoffRing (the default) hands chunks through one single-producer,
	// single-consumer ring per worker; HandoffChannel keeps the
	// buffered-Go-channel edge as an A/B baseline. Any other value is
	// rejected by New.
	Handoff HandoffKind
	// ChunkSize caps the number of elements a worker hands off per edge
	// send. Chunking amortizes edge synchronization across many elements;
	// the engine closes each handoff at about a millisecond of the producing
	// worker's measured work (handoffQuantum) or 64 KiB of payload
	// (chunkBytes), whichever comes first, so only stages cheaper than 1 ms /
	// ChunkSize per element, with elements under 1 KiB, reach the cap. 1
	// reproduces the legacy per-element handoff (useful as a benchmark
	// baseline). Default 64.
	ChunkSize int
	// SampleEvery samples per-element wall timers every Nth element (scaling
	// the recorded duration by N), so traced runs pay the time.Now cost only
	// 1/N of the time. 0 uses trace.SampleEvery (16); 1 times every element.
	// Element and byte counters are never sampled — only wall timers, which
	// nothing in the model reads: ops costs a stage from CPUNanos and the
	// counters, so a smaller period buys diagnostics, not a better plan, and
	// slows the traced pipeline whose rate the plan is calibrated on.
	SampleEvery int
	// DisableBufferPool turns off pooled record buffers and downstream
	// payload recycling, making every record a fresh allocation (the
	// per-element baseline). Pooling is on by default, Cache nodes
	// included: a cache keeps its own copy of what it records.
	DisableBufferPool bool
	// Caches, when non-nil, is a cache store shared across pipeline
	// re-instantiations: a rewrite loop that repeatedly rebuilds the
	// pipeline keeps warm cache contents between builds, and entries whose
	// below-cache chain changed under a rewrite are invalidated
	// automatically. Nil gives each pipeline a private store (caches live
	// only across Repeat epochs within that pipeline).
	Caches *CacheStore
	// Pool, when non-nil, subjects this pipeline to shared-pool admission:
	// a source or map worker holds a pool slot while it processes a chunk of
	// elements, and the sequential stages that work on what they pull
	// (filter, shuffle, batch, zip, concat) share one slot per driving
	// goroutine (seqGate), so pipelines on one pool are held to their
	// arbitrated worker shares. Nil (the default) runs it unconstrained.
	Pool *SharedPool
	// PoolTenant names the tenant this pipeline's slots are accounted to;
	// required (and it must already be admitted) when Pool is set.
	PoolTenant string
	// Retry is the fault-absorption policy applied at source opens, source
	// record reads, and UDF invocations. The zero value disables retries:
	// failures surface on first occurrence as typed *StageError values.
	Retry Retry
	// Context, when non-nil, cancels the pipeline when the context is done:
	// blocked Next calls return the context's cause and workers wind down.
	// Equivalent to calling Cancel from a watcher goroutine.
	Context context.Context
}

// Pipeline is an instantiated, runnable iterator tree.
type Pipeline struct {
	root   stage
	one    [1]item // where Next's pull of one lands
	opts   Options
	caches *CacheStore
	depth  int // edgeDepth; a test deepens it after New, before the first pull
	mu     sync.Mutex
	closed atomic.Bool // set under mu as Close begins; stopping reads it without

	// graph is the live program: the (cloned) graph the current tree was
	// built from, updated by Reconfigure. graphMu guards it because the
	// doctor samples Graph() from its own goroutine.
	graph   *pipeline.Graph
	graphMu sync.Mutex

	// Live reconfiguration (see reconfigure.go). quiesce asks source
	// workers to stop at the next record boundary, so the stream drains to
	// a barrier; pending is the reconfiguration waiting for that barrier;
	// reconfMu serializes Reconfigure callers; closedCh unblocks a waiting
	// Reconfigure when the pipeline is closed instead; resume seeds the
	// next tree's stateful iterators with the captured positions; live is
	// the registry of stateful iterators in the current tree.
	quiesce  atomic.Bool
	pending  atomic.Pointer[pendingReconfig]
	reconfMu sync.Mutex
	closedCh chan struct{}
	resMu    sync.Mutex
	resume   resumeState
	liveMu   sync.Mutex
	live     []resumable

	// pool enables pooled record buffers at sources and pooled batch
	// assembly, and lets operators that copy payloads (Batch) and the root
	// consumer return buffers to the pool. views lets sources serve
	// read-only views of the connector's storage (see views.go); it
	// requires pool, so the unpooled reference drain copies every record,
	// and the ring handoff, so the channel baseline measures the PR-1 engine
	// unchanged. storageViews names the sources of a views tree that serve
	// them: nothing on their chain writes a record before Batch copies it.
	// servedCopies names the caches that serve copies of what they keep,
	// because an operator above them may write its input before the next
	// Batch.
	pool         bool
	views        bool
	storageViews map[string]bool
	servedCopies map[string]bool

	// progress is the stream a stop rule reads (tracerun.go); nil outside a
	// trace run under a rule, and then no stage records anything.
	progress *progress

	// rootGate admits the root consumer's sequential stages (filter,
	// shuffle, batch driven by Next callers) to the shared pool; nil
	// without a pool. Segments driven by other goroutines (prefetch, map
	// workers) get their own gates at build time.
	rootGate *seqGate

	// Cancellation: cancelCh wakes consumers blocked on a worker handoff,
	// interrupts (the latch of every live parallel stage, including those
	// the Repeat operator builds mid-run; a stage drops its own when it
	// stops) wake the workers themselves, and cancelErr records the cause
	// surfaced by Next after cancellation.
	cancelCh   chan struct{}
	cancelOnce sync.Once
	cancelErr  atomic.Value // error
	intMu      sync.Mutex
	interrupts map[*doneLatch]struct{}
	watchStop  chan struct{} // stops the Options.Context watcher on Close

	// Pipeline-wide fault-handling aggregates (see ErrorStats); trackers
	// additionally attribute the same events to their stages.
	nRetries atomic.Int64
	nErrors  atomic.Int64
	nGaveUp  atomic.Int64
}

// New instantiates the graph. Construction runs in three phases — validate
// and normalize the options (prepare), build the iterator tree and wire its
// stage edges (install), and start the workers — with the third phase lazy:
// no file is opened and no worker goroutine starts until the first Next
// call. Reconfigure re-runs the install phase against a live pipeline.
func New(g *pipeline.Graph, opts Options) (*Pipeline, error) {
	return newPipeline(g, opts, nil)
}

// newPipeline is New for a pipeline that keeps pr, a progress stream for a
// stop rule (TraceRun); nil keeps none.
func newPipeline(g *pipeline.Graph, opts Options, pr *progress) (*Pipeline, error) {
	p, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	p.progress = pr
	if err := p.install(g); err != nil {
		return nil, err
	}
	if opts.Context != nil {
		if opts.Context.Err() != nil {
			p.cancelWith(context.Cause(opts.Context)) // ended already: no stage starts
		}
		p.watchStop = make(chan struct{})
		go func(ctx context.Context, stop <-chan struct{}) {
			select {
			case <-ctx.Done():
				p.cancelWith(context.Cause(ctx))
			case <-stop:
			}
		}(opts.Context, p.watchStop)
	}
	return p, nil
}

// prepare is construction phase 1: validate and normalize the options and
// allocate the pipeline shell. No graph is consulted yet.
func prepare(opts Options) (*Pipeline, error) {
	if opts.FS == nil {
		return nil, errors.New("engine: Options.FS is required")
	}
	if opts.Pool != nil {
		if opts.PoolTenant == "" {
			return nil, errors.New("engine: Options.Pool requires Options.PoolTenant")
		}
		if !opts.Pool.Admitted(opts.PoolTenant) {
			return nil, fmt.Errorf("engine: pool tenant %q not admitted", opts.PoolTenant)
		}
	}
	switch opts.Handoff {
	case "", HandoffRing:
		opts.Handoff = HandoffRing
	case HandoffChannel:
	default:
		return nil, fmt.Errorf("engine: unknown Options.Handoff %q (want %q or %q)",
			opts.Handoff, HandoffRing, HandoffChannel)
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = int(trace.SampleEvery)
		if opts.SampleEvery < 1 {
			opts.SampleEvery = 1
		}
	}
	p := &Pipeline{
		opts:       opts,
		depth:      edgeDepth,
		caches:     opts.Caches,
		cancelCh:   make(chan struct{}),
		closedCh:   make(chan struct{}),
		interrupts: make(map[*doneLatch]struct{}),
	}
	if p.caches == nil {
		p.caches = NewCacheStore()
	}
	return p, nil
}

// install is construction phase 2: validate the graph, build its iterator
// tree, and wire the stage edges and admission gates. Workers start lazily
// on the first Next (phase 3). New calls install on a fresh pipeline;
// applyReconfig calls it on a quiesced one, in which case p.resume seeds
// the new tree's stateful iterators with the captured stream positions.
func (p *Pipeline) install(g *pipeline.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	order, err := g.Topo()
	if err != nil {
		return err
	}
	byName := make(map[string]pipeline.Node, len(order))
	for _, n := range order {
		byName[n.Name] = n
	}
	p.pool = !p.opts.DisableBufferPool
	p.views = p.pool && p.opts.Handoff == HandoffRing
	p.storageViews, p.servedCopies = p.viewPlan(order)
	if p.progress != nil {
		p.progress.locate(g, byName)
	}
	outer := g.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	// All outer-parallelism replicas are driven by the same consumer
	// goroutine (round-robin), so they share the root segment's gate.
	p.rootGate = p.gate(p.cancelCh)
	build := func(replica int, seedShift uint64) (stage, error) {
		return p.buildNode(g, byName, g.Output, replica, p.opts.Seed^seedShift, p.rootGate, nil)
	}
	if outer == 1 {
		root, err := build(0, 0)
		if err != nil {
			return err
		}
		p.root = root
	} else {
		// Outer parallelism: run `outer` replicas of the whole chain and
		// round-robin their outputs (§5.1's remedy for NLP pipelines).
		replicas := make([]stage, outer)
		for i := range replicas {
			it, err := build(i, uint64(i+1)*0x9e3779b97f4a7c15)
			if err != nil {
				return err
			}
			replicas[i] = it
		}
		p.root = newRoundRobin(replicas)
	}
	p.graphMu.Lock()
	p.graph = g.Clone()
	p.graphMu.Unlock()
	return nil
}

// Graph returns a clone of the live program: the graph the current tree was
// built from, including any hot-applied reconfigurations.
func (p *Pipeline) Graph() *pipeline.Graph {
	p.graphMu.Lock()
	defer p.graphMu.Unlock()
	return p.graph.Clone()
}

// Next yields the next root element. After cancellation, Next returns the
// cancellation cause instead of a bare io.EOF, so consumers can tell an
// aborted stream from an exhausted one — once it has handed over what was
// already on its way: a Batch canceled mid-fill delivers the partial
// minibatch it holds before the cause.
//
// The consumer owns what it is given, with one exception: an element a
// Cache serves (a later epoch of a chain with a Cache and no Batch above
// it) carries the cache's own bytes, which it serves again every epoch.
// Such a payload is marked ReadOnly: Clone the element to write it.
// Recycle leaves it alone.
//
// Next is also where a pending Reconfigure lands: when the quiesce barrier
// drains the old tree to io.EOF, the swap runs here — on the consumer's
// goroutine, where every pull already serializes — and the loop continues
// pulling from the resumed tree, so the consumer never observes the barrier.
//
// Next is for one consumer goroutine at a time: calls from several
// goroutines must not overlap (every stage edge has a single consumer), and
// Close comes only after the last Next has returned. Cancel is the way to
// stop a pipeline from another goroutine; it also wakes a blocked Next.
func (p *Pipeline) Next() (data.Element, error) {
	for {
		_, err := p.root.pull(p.one[:])
		it := p.one[0]
		p.one[0] = item{}
		if err == nil {
			err = it.err
		}
		if err == nil {
			if pr := p.pending.Load(); pr != nil {
				pr.report.DrainedInFlight++
			}
			return it.elem, nil
		}
		if pr := p.pending.Load(); pr != nil {
			if err == io.EOF && p.CancelCause() == nil {
				if aerr := p.applyReconfig(pr); aerr != nil {
					return data.Element{}, aerr
				}
				continue
			}
			// The stream failed (or was canceled) while a reconfiguration
			// was waiting for the barrier: fail the reconfiguration and
			// surface the original error to the consumer.
			p.failPending(pr, fmt.Errorf("engine: pipeline failed during quiesce: %w", err))
		}
		if cause := p.CancelCause(); cause != nil {
			return data.Element{}, cause
		}
		return data.Element{}, err
	}
}

// Cancel aborts the pipeline: workers blocked on handoffs or pool admission
// wind down, blocked Next calls wake, and subsequent Next calls return the
// cancellation cause. Cancellation drops no completed work: what a stage
// had already handed off is still delivered, and a Batch canceled mid-fill
// delivers its partial minibatch — fewer examples than its batch size —
// before the cause, so a consumer counting minibatches must not count that
// one as whole. Cancel is safe from any goroutine and idempotent.
// Close after Cancel remains safe and idempotent; note that Close still
// waits for in-flight worker elements, so a worker wedged inside a UDF can
// make Close block (callers isolating wedged pipelines should cancel and
// skip Close, accepting the contained goroutine leak).
func (p *Pipeline) Cancel() { p.cancelWith(context.Canceled) }

// CancelCause returns the error the pipeline was canceled with, or nil if
// it has not been canceled.
func (p *Pipeline) CancelCause() error {
	if v := p.cancelErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

func (p *Pipeline) cancelWith(cause error) {
	p.cancelOnce.Do(func() {
		if cause == nil {
			cause = context.Canceled
		}
		p.cancelErr.Store(cause)
		p.intMu.Lock()
		for l := range p.interrupts {
			l.close()
		}
		p.intMu.Unlock()
		if p.opts.Pool != nil {
			p.opts.Pool.Interrupt() // wake workers blocked in Acquire
		}
		close(p.cancelCh)
	})
}

// stopping reports whether an io.EOF from below may be a cut stream, not an
// exhausted one: a quiesce barrier, a Cancel, or a Close winding stages down.
func (p *Pipeline) stopping() bool {
	return p.quiesce.Load() || p.closed.Load() || p.CancelCause() != nil
}

// iterLatch returns a registered done latch for a parallel iterator; the
// stage's stop closes it and drops it again (stopLatch). Latches created
// after cancellation come pre-closed, so subtrees the Repeat operator builds
// mid-cancel never start real work. cancelWith stores its cause before it
// takes intMu, so a latch registered after that walk sees the cause here.
func (p *Pipeline) iterLatch() *doneLatch {
	l := newLatch()
	p.intMu.Lock()
	if p.cancelErr.Load() != nil {
		l.close()
	}
	p.interrupts[l] = struct{}{}
	p.intMu.Unlock()
	return l
}

// stopLatch closes a stage's latch and drops it from the registry, so the
// registry holds only live stages however many epochs Repeat rebuilds.
func (p *Pipeline) stopLatch(l *doneLatch) {
	l.close()
	p.intMu.Lock()
	delete(p.interrupts, l)
	p.intMu.Unlock()
}

// ErrorStats is the pipeline-wide aggregate of fault-handling outcomes,
// summed over every stage (per-stage attribution lives in the trace
// snapshot's Retries/Errors/GaveUp counters).
type ErrorStats struct {
	// Retries counts transient failures absorbed by the retry policy.
	Retries int64 `json:"retries"`
	// Errors counts failures that surfaced to consumers.
	Errors int64 `json:"errors"`
	// GaveUp counts transient failures abandoned after the retry budget or
	// per-element deadline ran out (a subset of Errors).
	GaveUp int64 `json:"gave_up"`
}

// ErrorStats reports fault-handling outcomes so far; it remains readable
// after Close.
func (p *Pipeline) ErrorStats() ErrorStats {
	return ErrorStats{
		Retries: p.nRetries.Load(),
		Errors:  p.nErrors.Load(),
		GaveUp:  p.nGaveUp.Load(),
	}
}

// Close shuts down all workers and releases resources. Close is
// idempotent: the first call tears the iterator tree down (flushing every
// buffered counter shard), and every later call is a no-op returning nil,
// so callers may safely combine a deferred Close with an explicit
// error-checked one. Close must not overlap a Next: call it once the last
// Next has returned (Cancel first to make a blocked Next return).
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	p.closed.Store(true)
	close(p.closedCh) // unblock any Reconfigure waiting for a barrier
	if p.watchStop != nil {
		close(p.watchStop)
		p.watchStop = nil
	}
	err := p.root.Close()
	p.rootGate.close() // return the root segment's admission slot, if held
	return err
}

// Drain pulls up to max elements (all if max <= 0), returning the count
// pulled and the total example count. Drained payloads are recycled into
// the buffer pool when the pipeline allows it.
func (p *Pipeline) Drain(max int64) (elements, examples int64, err error) {
	for max <= 0 || elements < max {
		e, err := p.Next()
		if err == io.EOF {
			return elements, examples, nil
		}
		if err != nil {
			return elements, examples, err
		}
		elements++
		examples += int64(e.Count)
		p.Recycle(e)
	}
	return elements, examples, nil
}

// Recycle returns a root element's payload to the buffer pool when the
// pipeline pools. A read-only payload (a storage view, or an element a Cache
// serves) is left where it is. Callers that consume root elements and do not
// keep their payloads should call it to close the recycling loop.
func (p *Pipeline) Recycle(e data.Element) {
	p.releasePayload(&e)
}

// releasePayload retires an element this stage solely owns: a read-only
// payload is not the pool's to reuse and is left alone, an owned one goes
// back to the pool when the pipeline pools. Every engine-side recycle site
// must come through here rather than calling data.PutBuf directly. It takes
// e by pointer: a Batch retires every example it copies, and passing the
// element by value was 14 % of an in-memory chain's profile, more than the
// payload copy.
func (p *Pipeline) releasePayload(e *data.Element) {
	if p.pool && !e.ReadOnly && e.Payload != nil {
		data.PutBuf(e.Payload)
	}
}

// buildNode builds the iterator for the named node, recursively building the
// sub-tree feeding it by following input edges (so it handles DAG-shaped
// graphs whose combiners pull from several branches). Repeat nodes capture a
// factory so each epoch re-instantiates the subtree below them (cache
// contents persist in the store). replica is the outer-parallelism replica
// index; each replica materializes its own cache entries, since replicas are
// independent pipeline instances whose fills must not interleave.
//
// g is the admission gate of the sequential segment this node's pull runs
// in. Parallel stages (map, prefetch) end the segment: the stages below
// them run on their worker/prefetch goroutines, under a fresh gate bound to
// the parallel stage's latch. Sequential stages and pass-throughs inherit g
// (Repeat's factory captures it, so epoch rebuilds stay in the segment);
// combiners inherit it too — the consumer goroutine drives every branch.
//
// lump belongs to the segment as g does: the flag its receivers raise when
// they take a chunk off their edge, for the progress tap at the head of the
// segment (tracerun.go). It is nil everywhere but below the recording stage
// of a pipeline that keeps a progress stream.
func (p *Pipeline) buildNode(gr *pipeline.Graph, byName map[string]pipeline.Node, name string, replica int, seed uint64, g *seqGate, lump *bool) (stage, error) {
	n, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: missing node %q", name)
	}
	handle := p.handle(n.Name)
	childFactory := func() (stage, error) {
		if n.Input == "" {
			return nil, fmt.Errorf("engine: node %q has no child", n.Name)
		}
		return p.buildNode(gr, byName, n.Input, replica, seed, g, lump)
	}
	switch n.Kind {
	case pipeline.KindSource, pipeline.KindInterleave:
		cat, err := data.CatalogByName(n.Catalog)
		if err != nil {
			return nil, err
		}
		par := 1
		if n.Kind == pipeline.KindInterleave {
			par = n.EffectiveParallelism()
		}
		s := newSource(p, resumeKey{n.Name, replica}, cat, par, handle, seed, g)
		s.recv.lump = lump
		return s, nil
	case pipeline.KindMap:
		latch := p.iterLatch()
		childGate := p.gate(latch.ch)
		child, err := p.buildNode(gr, byName, n.Input, replica, seed, childGate, nil)
		if err != nil {
			return nil, err
		}
		u, err := p.lookupUDF(n.UDF)
		if err != nil {
			return nil, err
		}
		m := newMapIter(p, n.Name, child, u, n.EffectiveParallelism(), handle, seed, latch, g, childGate)
		m.recv.lump = lump
		return m, nil
	case pipeline.KindFilter:
		child, err := childFactory()
		if err != nil {
			return nil, err
		}
		u, err := p.lookupUDF(n.UDF)
		if err != nil {
			return nil, err
		}
		return newFilterIter(p, n.Name, child, u, handle, g), nil
	case pipeline.KindShuffle:
		child, err := childFactory()
		if err != nil {
			return nil, err
		}
		return newShuffleIter(p, child, n.BufferSize, handle, stats.NewRNG(seed^hashName(n.Name)), g), nil
	case pipeline.KindRepeat:
		return newRepeatIter(p, resumeKey{n.Name, replica}, childFactory, n.Count, handle), nil
	case pipeline.KindBatch:
		var tap *progressTap
		if p.progress != nil && n.Name == p.progress.stage {
			tap = &progressTap{pr: p.progress}
			lump = &tap.lump // what childFactory hands the segment below
		}
		child, err := childFactory()
		if err != nil {
			return nil, err
		}
		b := newBatchIter(p, child, n.BatchSize, handle, g)
		if tap != nil {
			tap.child, b.in = b.in, tap
		}
		return b, nil
	case pipeline.KindPrefetch:
		latch := p.iterLatch()
		childGate := p.gate(latch.ch)
		child, err := p.buildNode(gr, byName, n.Input, replica, seed, childGate, nil)
		if err != nil {
			return nil, err
		}
		pf := newPrefetchIter(p, child, n.BufferSize, handle, latch, g, childGate)
		pf.recv.lump = lump
		return pf, nil
	case pipeline.KindCache:
		key := resumeKey{n.Name, replica}
		below, err := gr.Below(n.Name)
		if err != nil {
			return nil, err
		}
		srcName := ""
		for _, bn := range below {
			if bn.IsSource() {
				srcName = bn.Name
				break
			}
		}
		entry := p.caches.entry(key.storeKey(), chainSignature(below, seed))
		return newCacheIter(p, key, entry, childFactory, handle, srcName, seed, p.servedCopies[n.Name])
	case pipeline.KindTake:
		child, err := childFactory()
		if err != nil {
			return nil, err
		}
		return newTakeIter(p, resumeKey{n.Name, replica}, child, n.Count, handle), nil
	case pipeline.KindZip, pipeline.KindConcat:
		children := make([]stage, len(n.Inputs))
		for i, in := range n.Inputs {
			c, err := p.buildNode(gr, byName, in, replica, seed, g, lump)
			if err != nil {
				for _, built := range children[:i] {
					built.Close()
				}
				return nil, err
			}
			children[i] = c
		}
		if n.Kind == pipeline.KindZip {
			return newZipIter(p, children, handle, g), nil
		}
		return newConcatIter(p, children, handle, g), nil
	default:
		return nil, fmt.Errorf("engine: unsupported node kind %q", n.Kind)
	}
}

func (p *Pipeline) lookupUDF(name string) (udf.UDF, error) {
	if p.opts.UDFs == nil {
		return udf.UDF{}, fmt.Errorf("engine: graph uses UDF %q but no registry provided", name)
	}
	return p.opts.UDFs.Lookup(name)
}

func (p *Pipeline) handle(name string) *trace.NodeStats {
	if p.opts.Collector == nil {
		return nil
	}
	h, err := p.opts.Collector.Node(name)
	if err != nil {
		return nil
	}
	return h
}

// DefaultChunkSize is the default cap on the elements per worker handoff.
const DefaultChunkSize = 64

// edgeDepth is the per-worker edge depth, in chunks, of a parallel stage:
// the buffered-channel capacity per worker, or the slot count of each
// producer's ring.
const edgeDepth = 2

// chunkSize returns the normalized cap on a handoff's element count.
func (p *Pipeline) chunkSize() int { return p.opts.ChunkSize }

// sampleEvery returns the normalized wall-timer sampling period.
func (p *Pipeline) sampleEvery() int64 { return int64(p.opts.SampleEvery) }

// accountCPU models and (optionally) burns cpuSeconds of work, attributing
// it to the worker's local counter shard.
func (p *Pipeline) accountCPU(ls *trace.LocalStats, cpuSeconds float64) {
	if p.opts.WorkScale <= 0 || cpuSeconds <= 0 {
		return
	}
	d := time.Duration(cpuSeconds * p.opts.WorkScale * float64(time.Second))
	if p.opts.Spin {
		spin(d)
	}
	if ls != nil {
		ls.AddCPU(d)
	}
}

// spinBatch is how many arithmetic iterations spin runs between deadline
// checks, so the busy-wait burns modeled CPU instead of clock reads.
const spinBatch = 1024

// spinSink publishes spin's accumulator so the loop cannot be elided.
var spinSink uint64

// spin busy-waits for d, burning CPU like a real decode would. The deadline
// is checked once per spinBatch iterations: calling time.Now every iteration
// would make the "work" mostly clock reads.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	s := atomic.LoadUint64(&spinSink)
	for {
		for i := 0; i < spinBatch; i++ {
			s = s*6364136223846793005 + 1442695040888963407
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	atomic.StoreUint64(&spinSink, s)
}

// chainSignature fingerprints the subtree below a cache node: every field
// that affects what the cache would materialize (operator identity and
// parameters, plus the pipeline seed that drives shuffles and randomized
// UDFs). A rewrite that touches anything below the cache point produces a
// different signature and therefore a cold entry. below is the sub-graph in
// Graph.Below's deterministic topological order, so linear chains keep the
// signatures the pre-DAG engine produced.
func chainSignature(below []pipeline.Node, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", seed)
	for _, n := range below {
		fmt.Fprintf(&b, "|%s/%s/%s/%s/%d/%d/%d/%d/%s",
			n.Name, n.Kind, n.Input, n.UDF, n.Parallelism, n.BufferSize,
			n.BatchSize, n.Count, n.Catalog)
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&b, "/%s", strings.Join(n.Inputs, "+"))
		}
	}
	return b.String()
}

func hashName(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// flushInterval is how many traced events a single-goroutine tracker
// accumulates locally before publishing to the shared counters; it bounds
// snapshot staleness for sequential iterators.
const flushInterval = 256

// tracker couples a LocalStats shard with periodic flushing for iterators
// whose pull runs in (at most) one goroutine at a time. It keeps the hot
// path free of atomics: plain local adds, one atomic flush per
// flushInterval events plus a final flush on Close.
type tracker struct {
	h  *trace.NodeStats
	ls trace.LocalStats
	n  int
}

// timer starts timing a piece of work: it returns the time now when the
// tracker publishes and sm, if given, samples the work, and the zero time
// when the work goes untimed. It and lap inline, so untraced work pays no
// call (CI checks it).
func (t *tracker) timer(sm *trace.Sampler) time.Time {
	if t.h == nil {
		return time.Time{}
	}
	return sampledNow(sm)
}

func sampledNow(sm *trace.Sampler) time.Time {
	if sm != nil && !sm.Tick() {
		return time.Time{}
	}
	return time.Now()
}

// lap adds the wall time since a timer's start, scaled up to the work sm
// samples from.
func (t *tracker) lap(start time.Time, sm *trace.Sampler) {
	if start != (time.Time{}) {
		t.addLap(start, sm)
	}
}

func (t *tracker) addLap(start time.Time, sm *trace.Sampler) {
	d := time.Since(start)
	if sm != nil {
		d = sm.Scale(d)
	}
	t.ls.AddWall(d)
}

func (t *tracker) produced(e data.Element) {
	if t.h == nil {
		return
	}
	t.ls.AddProduced(e.Size)
	t.maybeFlush(1)
}

// consumed counts n elements pulled from the child: one, or a run, which
// counts toward the flush interval as its elements would.
func (t *tracker) consumed(n int) {
	if t.h == nil {
		return
	}
	t.ls.AddConsumed(int64(n))
	t.maybeFlush(n)
}

func (t *tracker) retried() {
	if t.h == nil {
		return
	}
	t.ls.AddRetry()
	t.maybeFlush(1)
}

func (t *tracker) errored(gaveUp bool) {
	if t.h == nil {
		return
	}
	t.ls.AddError(gaveUp)
	t.maybeFlush(1)
}

// maybeFlush counts n events and publishes every flushInterval of them.
func (t *tracker) maybeFlush(n int) {
	if t.n += n; t.n >= flushInterval {
		t.n = 0
		t.ls.Flush(t.h)
	}
}

// passed counts a run a stage hands on as it pulled it; handed counts only
// what it hands on. A failure, the run's last item, is no element.
func (t *tracker) passed(run []item) { t.consumed(len(run)); t.handed(run) }

func (t *tracker) handed(run []item) {
	if t.h == nil {
		return
	}
	for i := range run {
		if run[i].err == nil {
			t.produced(run[i].elem)
		}
	}
}

// flush publishes any buffered counts; call on Close.
func (t *tracker) flush() { t.ls.Flush(t.h) }

// slot tracks one shared-pool worker slot across a worker's chunk loop.
// With no pool configured every method is a no-op, so unpooled pipelines
// pay nothing. Holders release at chunk boundaries (yield) and on exit
// (release — idempotent, safe under defer alongside explicit calls).
type slot struct {
	pool   *SharedPool
	tenant string
	done   <-chan struct{}
	// seq tags holds by consumer-side sequential stages, so the pool can
	// report how much of a tenant's occupancy its gated sequential work
	// contributed (PoolStats.HeldSecondsSequential).
	seq bool
	rel func()
}

func (p *Pipeline) slot(done <-chan struct{}) slot {
	return slot{pool: p.opts.Pool, tenant: p.opts.PoolTenant, done: done}
}

// acquire obtains a slot if one is not already held. It returns false when
// the pipeline is shutting down (done closed).
func (s *slot) acquire() bool {
	if s.pool == nil || s.rel != nil {
		return true
	}
	rel, ok := s.pool.acquireSlot(s.tenant, s.done, s.seq)
	if !ok {
		return false
	}
	s.rel = rel
	return true
}

// release returns the held slot, if any.
func (s *slot) release() {
	if s.rel != nil {
		s.rel()
		s.rel = nil
	}
}

// yield is a chunk-boundary preemption point. A borrower — its tenant holds
// more slots than its guarantee — releases the slot so a waiting guaranteed
// tenant can be admitted, then re-acquires at once; a holder within its
// tenant's share keeps the slot, because it keeps no guaranteed waiter out.
// A slot not held stays not held: the next acquire takes it.
func (s *slot) yield() bool {
	if s.rel == nil || !s.pool.mustYield(s.tenant) {
		return true
	}
	s.release()
	return s.acquire()
}

// seqGate subjects the sequential stages that work on what they pull
// (filter, shuffle, batch, zip, concat) to shared-pool admission. One gate
// serves one driving goroutine's whole sequential segment: the root
// consumer's stack, a prefetch goroutine's, or a map worker's below-map
// pulls (serialized by the map's childMu, so gate state needs no lock). Nested
// gated stages share the slot through a reentrancy depth instead of each
// holding one — a share-1 tenant with batch-over-filter would deadlock
// against itself otherwise.
//
// The "never hold a slot across a blocking handoff" invariant holds on both
// edges of the segment: a chunkReceiver about to block on an empty upstream
// edge releases the gate's slot first (unblock/reacquire), and a prefetch
// emitter about to block on its full downstream edge releases it the same
// way workers do (chunkEmitter.sl). At chunk boundaries — every `every`
// consumed elements — tick yields a borrowed slot so waiting guaranteed
// tenants get in; preemption latency for sequential work is therefore
// bounded by one chunk, same as for workers.
type seqGate struct {
	sl    slot
	every int
	n     int
	depth int
}

// gate returns a seqGate for one sequential segment whose lifetime is
// bounded by done, or nil when the pipeline has no pool (every method
// no-ops on nil).
func (p *Pipeline) gate(done <-chan struct{}) *seqGate {
	if p.opts.Pool == nil {
		return nil
	}
	sl := p.slot(done)
	sl.seq = true
	return &seqGate{sl: sl, every: p.chunkSize()}
}

// enter admits the calling stage, acquiring the segment's slot at depth 0.
// It returns false when the pipeline is shutting down or the tenant was
// evicted; the stage surfaces that as io.EOF and unwinds.
func (g *seqGate) enter() bool {
	if g == nil {
		return true
	}
	g.depth++
	if g.depth > 1 {
		return true
	}
	return g.sl.acquire()
}

// exit undoes enter. The slot deliberately stays held across pulls —
// tick yields it at chunk boundaries, blocking edges release it, and close
// frees it when the segment's driver finishes — so back-to-back sequential
// pulls don't pay an admission round-trip each.
func (g *seqGate) exit() {
	if g != nil {
		g.depth--
	}
}

// tick marks n consumed elements — one, or a run; every `every` elements it
// yields the slot (a borrower's release + blocking re-acquire), the
// sequential stages' chunk-boundary preemption point.
func (g *seqGate) tick(n int) bool {
	if g == nil || g.sl.pool == nil {
		return true
	}
	if g.n += n; g.n < g.every {
		return true
	}
	g.n = 0
	return g.sl.yield()
}

// unblock releases the segment's slot before a blocking upstream receive;
// reacquire takes it back once data (or EOF) arrived. At depth 0 — no gated
// stage on the stack — both no-op beyond returning the idle slot.
func (g *seqGate) unblock() {
	if g == nil {
		return
	}
	g.sl.release()
}

func (g *seqGate) reacquire() bool {
	if g == nil || g.depth == 0 {
		return true
	}
	return g.sl.acquire()
}

// close releases whatever the gate still holds; call when the segment's
// driving goroutine finishes.
func (g *seqGate) close() {
	if g != nil {
		g.sl.release()
	}
}
