package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"plumber/internal/data"
	"plumber/internal/pipeline"
)

// Live reconfiguration: Reconfigure applies a new plan to a running
// pipeline without dropping or duplicating a single element.
//
// The mechanism is quiesce -> patch -> resume:
//
//   - Quiesce. Setting p.quiesce asks every source worker to stop at its
//     next record boundary. Each worker records the exact byte offset of
//     its in-flight file (record boundaries are exact — the same offsets
//     the retry policy rewinds to), flushes its partial chunk downstream,
//     and exits. EOF then propagates up the tree the ordinary way: every
//     stage edge — ring or channel — closes only after the consumer has
//     drained every chunk in it, map workers flush their in-hand outputs,
//     shuffle drains its buffer, batch emits its partial batch. Every
//     element that entered the pipeline is therefore *delivered* to the
//     consumer under the old configuration; the barrier is the consumer
//     observing io.EOF, at which point no worker goroutine is live.
//
//   - Patch. On the consumer's goroutine (Next), the captured stream
//     positions are collected from the old tree's stateful iterators, the
//     old tree is torn down (flushing its counters), and the new graph
//     (per-stage parallelism, prefetch, cache insertion/removal from
//     rewrite.ApplyPlan) replaces the old one; the stage edges are rebuilt
//     with it.
//
//   - Resume. install rebuilds the tree; sources reopen their partial
//     files and SkipTo the recorded offsets, repeat/take/cache iterators
//     pick up their epoch/position counters. Workers re-acquire shared-pool
//     slots at the new widths on their first chunk, so pool shares follow
//     the patch automatically.
//
// Not hot-patchable (rejected by Reconfigure): changing outer parallelism,
// replacing the source node or its catalog, adding/removing/altering
// Repeat or Take nodes, and changing the handoff kind (Options, not graph,
// and edges are rebuilt anyway — but the kind is pinned at New). A patch
// that would invalidate a cache entry the stream is mid-way through
// serving is rejected at the barrier and the pipeline resumes unchanged.

// Patch is a live-reconfiguration request.
type Patch struct {
	// Graph, when non-nil, is the rewritten program to hot-apply (for
	// example rewrite.ApplyPlan output against Pipeline.Graph()). It must
	// keep the same source node, outer parallelism, and Repeat/Take
	// structure; parallelism, prefetch, cache, and shuffle changes are the
	// hot-patchable surface. Nil rebuilds the current graph.
	Graph *pipeline.Graph
}

// ReconfigReport describes what one Reconfigure did.
type ReconfigReport struct {
	// QuiesceDuration is the time from the Reconfigure call to the barrier:
	// how long draining the in-flight elements to the consumer took.
	QuiesceDuration time.Duration `json:"quiesce_duration"`
	// ApplyDuration is the time spent at the barrier: capturing positions,
	// tearing down the old tree, and building the new one.
	ApplyDuration time.Duration `json:"apply_duration"`
	// DrainedInFlight counts root elements the consumer received between
	// the Reconfigure call and the barrier — the in-flight work that was
	// delivered rather than dropped.
	DrainedInFlight int64 `json:"drained_in_flight"`
	// ResumedPartialFiles counts source files reopened mid-file (SkipTo a
	// recorded record boundary); ResumedPendingFiles counts files that were
	// still queued, carried over unopened.
	ResumedPartialFiles int `json:"resumed_partial_files"`
	ResumedPendingFiles int `json:"resumed_pending_files"`
}

// pendingReconfig is the published state of an in-flight Reconfigure. The
// waiting caller reads report/err after done closes; until then only the
// consumer goroutine touches them.
type pendingReconfig struct {
	patch  Patch
	start  time.Time
	done   chan struct{}
	report ReconfigReport
	err    error
}

// Reconfigure hot-applies a patch to the running pipeline and blocks until
// it has been applied (or rejected), returning a report of the transition.
// It must be called from a goroutine other than the consumer's: the swap
// itself runs inside the consumer's Next at the quiesce barrier, so the
// consumer has to keep draining for the barrier to be reached. Elements
// already in flight are delivered to the consumer, never dropped; the
// resumed stream continues exactly where the old one stopped.
//
// A patch that fails validation at the barrier (for example, it would
// invalidate a cache entry the stream is mid-way through serving) returns
// an error while the pipeline resumes with its previous configuration —
// a rejected Reconfigure never breaks the stream.
func (p *Pipeline) Reconfigure(patch Patch) (ReconfigReport, error) {
	p.reconfMu.Lock()
	defer p.reconfMu.Unlock()
	if p.closed.Load() {
		return ReconfigReport{}, errors.New("engine: Reconfigure on closed pipeline")
	}
	if cause := p.CancelCause(); cause != nil {
		return ReconfigReport{}, fmt.Errorf("engine: Reconfigure on canceled pipeline: %w", cause)
	}
	if patch.Graph != nil {
		if err := p.validatePatchGraph(patch.Graph); err != nil {
			return ReconfigReport{}, err
		}
		patch.Graph = patch.Graph.Clone()
	}
	pr := &pendingReconfig{patch: patch, start: time.Now(), done: make(chan struct{})}
	if !p.pending.CompareAndSwap(nil, pr) {
		return ReconfigReport{}, errors.New("engine: reconfiguration already in flight")
	}
	p.quiesce.Store(true)
	select {
	case <-pr.done:
		return pr.report, pr.err
	case <-p.cancelCh:
		return ReconfigReport{}, fmt.Errorf("engine: pipeline canceled during reconfiguration: %w", p.CancelCause())
	case <-p.closedCh:
		return ReconfigReport{}, errors.New("engine: pipeline closed during reconfiguration")
	}
}

// validatePatchGraph enforces the hot-patch boundary before the quiesce
// starts, so an inapplicable patch is rejected without disturbing the
// stream at all.
func (p *Pipeline) validatePatchGraph(g *pipeline.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	newChain, err := g.Chain()
	if err != nil {
		return err
	}
	p.graphMu.Lock()
	cur := p.graph
	p.graphMu.Unlock()
	curChain, err := cur.Chain()
	if err != nil {
		return err
	}
	curOuter, newOuter := cur.OuterParallelism, g.OuterParallelism
	if curOuter < 1 {
		curOuter = 1
	}
	if newOuter < 1 {
		newOuter = 1
	}
	if curOuter != newOuter {
		return fmt.Errorf("engine: Reconfigure cannot change outer parallelism (%d -> %d); rebuild the pipeline instead", curOuter, newOuter)
	}
	if newChain[0].Name != curChain[0].Name || newChain[0].Catalog != curChain[0].Catalog {
		return fmt.Errorf("engine: Reconfigure cannot replace the source node (%s/%s -> %s/%s); rebuild the pipeline instead",
			curChain[0].Name, curChain[0].Catalog, newChain[0].Name, newChain[0].Catalog)
	}
	if _, err := data.CatalogByName(newChain[0].Catalog); err != nil {
		return err
	}
	for _, n := range newChain {
		if n.Kind == pipeline.KindMap || n.Kind == pipeline.KindFilter {
			if _, err := p.lookupUDF(n.UDF); err != nil {
				return err
			}
		}
	}
	// Resume state for Repeat and Take is keyed by node name and carries
	// epoch/position counters that cannot survive structural changes.
	if cs, ns := loopSignature(curChain), loopSignature(newChain); cs != ns {
		return fmt.Errorf("engine: Reconfigure cannot add, remove, or alter Repeat/Take nodes mid-stream (%q -> %q); rebuild the pipeline instead", cs, ns)
	}
	return nil
}

// loopSignature fingerprints the epoch/limit structure of a chain: the
// Repeat and Take nodes whose counters the resume machinery carries across
// a reconfiguration.
func loopSignature(chain []pipeline.Node) string {
	var b strings.Builder
	for _, n := range chain {
		if n.Kind == pipeline.KindRepeat || n.Kind == pipeline.KindTake {
			fmt.Fprintf(&b, "%s/%s/%d|", n.Name, n.Kind, n.Count)
		}
	}
	return b.String()
}

// applyReconfig runs on the consumer goroutine at the quiesce barrier: the
// old tree has drained to io.EOF, so every worker and stage goroutine has
// exited and the stateful iterators are quiescent.
func (p *Pipeline) applyReconfig(pr *pendingReconfig) error {
	pr.report.QuiesceDuration = time.Since(pr.start)
	applyStart := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		p.finishReconfig(pr, errors.New("engine: pipeline closed during reconfiguration"))
		return io.EOF
	}

	// 1. Capture resume state from the live stateful iterators.
	rs := make(resumeState)
	p.liveMu.Lock()
	live := append([]resumable(nil), p.live...)
	p.liveMu.Unlock()
	for _, r := range live {
		r.capture(rs)
	}
	for _, v := range rs {
		sr, _ := v.(*sourceResume)
		if sr == nil {
			continue
		}
		for _, t := range sr.tasks {
			if t.offset > 0 {
				pr.report.ResumedPartialFiles++
			} else {
				pr.report.ResumedPendingFiles++
			}
		}
	}

	// Late validation against the captured state: a patch that would
	// invalidate a cache entry the stream is mid-way through serving
	// cannot be applied without re-delivering the served prefix. Reject
	// the patch but resume the stream under the old configuration.
	patch := pr.patch
	var rejected error
	if patch.Graph != nil {
		if err := p.checkServingCaches(rs, patch.Graph); err != nil {
			rejected = err
			patch = Patch{}
		}
	}

	// 2. Tear down the old tree (flushes every buffered counter shard; each
	// stage drops its own interrupt latch as it stops).
	closeErr := p.root.Close()
	p.rootGate.close()
	p.liveMu.Lock()
	p.live = nil
	p.liveMu.Unlock()
	if closeErr != nil {
		err := fmt.Errorf("engine: reconfigure teardown: %w", closeErr)
		p.finishReconfig(pr, err)
		return err
	}

	// 3. Patch the graph.
	g := patch.Graph
	if g == nil {
		p.graphMu.Lock()
		g = p.graph
		p.graphMu.Unlock()
	}

	// 4. Resume. The collector learns the new graph before the tree
	// resolves node handles (inserted nodes get fresh counters); the
	// quiesce flag clears before install so the new sources run.
	if p.opts.Collector != nil && patch.Graph != nil {
		if err := p.opts.Collector.SetGraph(g); err != nil {
			p.finishReconfig(pr, err)
			return err
		}
	}
	p.resMu.Lock()
	p.resume = rs
	p.resMu.Unlock()
	p.quiesce.Store(false)
	if err := p.install(g); err != nil {
		err = fmt.Errorf("engine: reconfigure rebuild: %w", err)
		p.finishReconfig(pr, err)
		return err
	}
	pr.report.ApplyDuration = time.Since(applyStart)
	p.finishReconfig(pr, rejected)
	return nil
}

// checkServingCaches rejects a patch that removes or invalidates a cache
// entry the stream is mid-way through serving: the elements already served
// this epoch came from the entry, so any tree without that exact entry
// would re-deliver them (no source position exists to resume from).
func (p *Pipeline) checkServingCaches(rs resumeState, g *pipeline.Graph) error {
	for k, v := range rs {
		cr, ok := v.(cacheResume)
		if !ok || cr.pos == 0 || cr.filled {
			continue
		}
		n, err := g.Node(k.name)
		if err == nil && n.Kind == pipeline.KindCache {
			below, berr := g.Below(k.name)
			if berr != nil {
				return berr
			}
			sig, complete, ok := p.caches.peek(k.storeKey())
			if ok && complete && sig == chainSignature(below, cr.seed) {
				continue
			}
		}
		return fmt.Errorf("engine: Reconfigure would invalidate cache %q mid-serve (position %d); patch rejected, pipeline resumed unchanged", k.storeKey(), cr.pos)
	}
	return nil
}

// finishReconfig publishes the outcome to the waiting Reconfigure caller
// and clears the pending slot. Returns err for convenience.
func (p *Pipeline) finishReconfig(pr *pendingReconfig, err error) {
	pr.err = err
	p.pending.Store(nil)
	close(pr.done)
}

// failPending aborts a pending reconfiguration from the Next error path:
// the stream failed before the barrier was reached.
func (p *Pipeline) failPending(pr *pendingReconfig, err error) {
	p.quiesce.Store(false)
	p.finishReconfig(pr, err)
}

// ---------------------------------------------------------------------------
// Resume state

// resumable is a stateful iterator that can hand its stream position to a
// successor tree. Iterators register at construction (track) and
// deregister on Close (untrack), so subtrees torn down at epoch boundaries
// do not pollute the capture.
type resumable interface {
	capture(rs resumeState)
}

// resumeKey identifies one stateful iterator: node name plus the
// outer-parallelism replica it belongs to.
type resumeKey struct {
	name    string
	replica int
}

// storeKey is a cache's key in the CacheStore: its name, suffixed with the
// replica index under outer parallelism, so replicas never share a fill.
func (k resumeKey) storeKey() string {
	if k.replica == 0 {
		return k.name
	}
	return fmt.Sprintf("%s#%d", k.name, k.replica)
}

// fileTask is one unit of source work: a shard path and the byte offset to
// resume reading at (0 = from the start).
type fileTask struct {
	path   string
	offset int64
}

// sourceResume is a source/interleave node's captured position: the files
// still to read (partially-read ones first, with exact record-boundary
// offsets) and the element sequence counter. fromStart marks a source that
// never produced anything — its stream still begins at the beginning, so a
// cache built above it may fill.
type sourceResume struct {
	tasks     []fileTask
	nextIdx   int64
	fromStart bool
}

type repeatResume struct {
	epoch      int64
	inProgress bool
}

// cacheResume is a serving cache's position. seed, the replica's effective
// seed, reproduces the entry signature check at apply time. filled marks a
// cache that completed its fill in the interrupted epoch: the sources below
// it are tracked and captured as exhausted, so — unlike a cache that was
// serving — a patch may drop or invalidate its entry and the epoch still
// ends there.
type cacheResume struct {
	pos    int
	seed   uint64
	filled bool
}

// resumeState holds what each stateful iterator captured at the barrier: a
// *sourceResume, a repeatResume, a Take's served count (int64), or a
// cacheResume.
type resumeState map[resumeKey]any

// track registers a stateful iterator in the live registry.
func (p *Pipeline) track(r resumable) {
	p.liveMu.Lock()
	p.live = append(p.live, r)
	p.liveMu.Unlock()
}

// untrack removes a closed iterator (identity match).
func (p *Pipeline) untrack(r resumable) {
	p.liveMu.Lock()
	for i, x := range p.live {
		if x == r {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
	p.liveMu.Unlock()
}

// takeResume consumes the resume entry of type T captured for k, if one
// exists. Entries are consumed on first build so that a later epoch rebuild
// (Repeat's factory) starts from the beginning again.
func takeResume[T any](p *Pipeline, k resumeKey) (T, bool) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	v, ok := p.resume[k].(T)
	if ok {
		delete(p.resume, k)
	}
	return v, ok
}

// peekResume is takeResume without consuming the entry.
func peekResume[T any](p *Pipeline, k resumeKey) (T, bool) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	v, ok := p.resume[k].(T)
	return v, ok
}

// peek reports an entry's signature and completeness without creating or
// invalidating anything; used by the apply-time serving-cache check.
func (cs *CacheStore) peek(name string) (sig string, complete bool, ok bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	e, ok := cs.entries[name]
	if !ok {
		return "", false, false
	}
	e.mu.Lock()
	sig, complete = e.sig, e.complete
	e.mu.Unlock()
	return sig, complete, true
}
