package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"plumber/internal/data"
	"plumber/internal/pipeline"
)

// Borrowed payload views.
//
// With the ring handoff, source workers stop drawing one pooled buffer per
// record and hand elements downstream as borrowed views (data.Element.Owner
// set). There are two kinds, chosen per source when the tree is installed:
//
// Storage views. A connector whose bytes are already in memory (simfs, the
// object store: connector.Viewer) can serve a record as a slice of its own
// storage, so the record is read exactly once — its checksums are verified
// in place and Batch's concatenation is the first and only copy. Such a view
// is read-only: it aliases the dataset every other reader is served from. The
// engine therefore hands one out only when viewPlan can prove, from the graph
// alone, that no operator writes a record before that copy. Its Owner is the
// no-op readOnlyView: nothing is ever reclaimed, and the release sites below
// never hand storage to data.PutBuf.
//
// Arena views. Everything else under the ring handoff still copies each
// record once, into the worker's arena: backends with nothing in memory to
// alias (LocalFS), and chains that may write — a UDF Body anywhere before
// the first Batch, a Zip or Concat, or no Batch at all, where the consumer
// receives the records themselves and owns what it is given. Each worker
// bump-allocates record payloads out of its private arena block. The block
// is the reclamation epoch: it holds one fill reference while the worker is
// still carving views out of it, plus one reference per live view. A view is
// released when its element retires — dropped by a filter or map predicate,
// copied out by Batch, or recycled by the root consumer — which, runs being
// pulled out of chunks, happens at chunk granularity. When the worker seals the block (it
// rolled over to a new epoch, or the worker exited) and the last view is
// released, the whole block returns to a pool in one operation: per-record
// GetBuf and PutBuf disappear from the hot path, and consecutive records land
// physically adjacent for the downstream scan.
//
// Views must NEVER be handed to data.PutBuf: their capacities are not pool
// size classes, and a view entering the buffer pool while its block is live
// would alias two owners onto the same bytes. Every engine recycle site
// therefore goes through Pipeline.releasePayload, which routes owned views
// to their owner and only pool-owned buffers to PutBuf. Views are built
// with three-index slices, so even an append cannot scribble past a view's
// end into its neighbor.

// readOnlyView is the Owner of a payload nobody downstream may recycle or
// write: a record served as a view of the connector's own storage, which is
// the dataset and outlives the pipeline, or an element a Cache serves, whose
// bytes the cache keeps for every later epoch. Releasing it is a no-op. It
// exists so that releasePayload sees an owned view and keeps the slice out of
// the buffer pool — a cached copy's capacity can be a pool size class.
type readOnlyView struct{}

// ReleasePayload implements data.PayloadOwner.
func (readOnlyView) ReleasePayload([]byte) {}

// viewPlan decides, from the graph alone, where a payload that must not be
// written may travel. storage names the sources whose records may be served
// as storage views: the walk up from the source reaches a Batch, the first
// copy. copies names the caches whose served elements must be copies: the
// walk up from the cache stops before any Batch, at an operator that may
// write what it is handed. A cache whose walk reaches the root serves its
// own bytes, read-only (Pipeline.Next). order is the validated graph, an
// in-tree: one consumer per node. Without viewArena no source qualifies: a
// tree that does not retire every element it drops, or the channel baseline,
// hands out no borrowed views.
func (p *Pipeline) viewPlan(order []pipeline.Node) (storage, copies map[string]bool) {
	consumer := make(map[string]pipeline.Node, len(order))
	for _, n := range order {
		for _, in := range n.InputNames() {
			consumer[in] = n
		}
	}
	storage, copies = make(map[string]bool), make(map[string]bool)
	for _, n := range order {
		stop, ok := p.stopAbove(n.Name, consumer)
		switch {
		case n.IsSource() && p.viewArena && ok && stop.Kind == pipeline.KindBatch:
			storage[n.Name] = true
		case n.Kind == pipeline.KindCache && ok && stop.Kind != pipeline.KindBatch:
			copies[n.Name] = true
		}
	}
	return storage, copies
}

// stopAbove walks the consumers above the named node through the operators
// that leave payloads unwritten and returns the one it stops at: the first
// Batch, which copies them, or the first operator that may write them or
// that the walk does not see through. Shuffle, Prefetch, Repeat and Take hold
// or forward elements; a Cache only reads what it copies; a Map or Filter
// without a Body is the cost model only (an amplifying Map copies into a
// fresh buffer, it never grows a payload in place). A Body is caller code
// that owns its input and may write it, and Zip and Concat are not walked
// through. ok is false when the walk reaches the root: the consumer gets the
// payloads themselves.
func (p *Pipeline) stopAbove(name string, consumer map[string]pipeline.Node) (stop pipeline.Node, ok bool) {
	for n, ok := consumer[name]; ok; n, ok = consumer[n.Name] {
		switch n.Kind {
		case pipeline.KindShuffle, pipeline.KindPrefetch, pipeline.KindRepeat, pipeline.KindTake, pipeline.KindCache:
		case pipeline.KindMap, pipeline.KindFilter:
			if u, err := p.lookupUDF(n.UDF); err != nil || u.Body != nil {
				return n, true
			}
		default:
			return n, true
		}
	}
	return pipeline.Node{}, false
}

const (
	// arenaBlockBytes is one epoch's capacity. 256 KiB keeps a block well
	// inside the L2 of anything we run on while amortizing pool traffic
	// over hundreds of typical records.
	arenaBlockBytes = 256 << 10
	// arenaMaxRecord is the largest record placed in an arena; bigger ones
	// fall back to the buffer pool so one huge record cannot pin an
	// almost-empty block or force a fresh epoch per record.
	arenaMaxRecord = arenaBlockBytes / 4
)

// arenaBlockPool recycles sealed, fully released blocks.
var arenaBlockPool = sync.Pool{
	New: func() any {
		return &arenaBlock{buf: make([]byte, arenaBlockBytes)}
	},
}

// arenaBlock is one reclamation epoch: a fixed byte region plus a reference
// count (1 fill reference held by the producing worker until the block is
// sealed, +1 per live view). It implements data.PayloadOwner, so elements
// carry the release path with them.
type arenaBlock struct {
	buf  []byte
	refs atomic.Int64
}

// ReleasePayload returns one view's reference (data.PayloadOwner).
func (b *arenaBlock) ReleasePayload(_ []byte) { b.release() }

func (b *arenaBlock) release() {
	n := b.refs.Add(-1)
	if n == 0 {
		poisonArena(b.buf)
		arenaBlockRecycled()
		arenaBlockPool.Put(b)
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("engine: arena block released %d times past zero (double release of a payload view)", -n))
	}
}

// arena is a single worker's bump allocator. It is not safe for concurrent
// use — each source worker owns one — but the views it hands out are
// released from arbitrary goroutines (the block refcount is atomic).
type arena struct {
	cur *arenaBlock
	off int
	// last is the block backing the most recent alloc, nil when the most
	// recent request was declined; owner() reads it to tag the element
	// built from that allocation.
	last *arenaBlock
}

func newArena() *arena { return &arena{} }

// alloc carves an n-byte view out of the current epoch, advancing to a
// fresh block when the current one is full. It returns nil (declining the
// request) for empty or oversized records, which the caller routes to the
// buffer pool instead.
func (a *arena) alloc(n int) []byte {
	if n <= 0 || n > arenaMaxRecord {
		a.last = nil
		return nil
	}
	if a.cur == nil || a.off+n > len(a.cur.buf) {
		a.seal()
		a.cur = arenaBlockPool.Get().(*arenaBlock)
		a.cur.refs.Store(1) // the fill reference
		arenaBlockActivated()
		a.off = 0
	}
	v := a.cur.buf[a.off : a.off+n : a.off+n]
	a.off += n
	a.cur.refs.Add(1)
	a.last = a.cur
	return v
}

// unalloc takes back the most recent alloc (a failed record read). The
// bytes are not reusable — the bump pointer has moved on — but the view's
// reference must drop or the epoch never reclaims.
func (a *arena) unalloc(_ []byte) {
	if a.last != nil {
		a.last.release()
		a.last = nil
	}
}

// owner returns the PayloadOwner for the most recent alloc, or nil when it
// was declined (pool-allocated payload).
func (a *arena) owner() data.PayloadOwner {
	if a.last == nil {
		return nil
	}
	return a.last
}

// seal drops the fill reference of the current epoch: once the last view is
// released the block recycles. Call on rollover and on worker exit.
func (a *arena) seal() {
	if a.cur != nil {
		a.cur.release()
		a.cur = nil
		a.last = nil
	}
}
