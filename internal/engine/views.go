package engine

import "plumber/internal/pipeline"

// Read-only payload views.
//
// A connector whose bytes are already in memory (simfs, the object store:
// connector.Viewer) can serve a record as a slice of its own storage, so the
// record is read exactly once — its checksums are verified in place and
// Batch's concatenation is the first and only copy. Such a view is
// read-only (data.Element.ReadOnly): it aliases the dataset every other
// reader is served from. The engine therefore hands one out only when
// viewPlan can prove, from the graph alone, that no operator writes a record
// before that copy. A Cache's served elements are read-only for the same
// reason: the cache serves the same bytes every epoch.
//
// Every other source record is read into a pooled buffer the chain owns:
// backends with nothing in memory to alias (LocalFS), and chains that may
// write — a UDF Body anywhere before the first Batch, a Zip or Concat, or
// no Batch at all, where the consumer receives the records themselves and
// owns what it is given. Whoever retires it — a filter or map predicate
// that drops it, a Batch or Zip that copies it out, the root consumer —
// returns it with data.PutBuf. Every engine recycle site goes through
// Pipeline.releasePayload, which leaves read-only payloads where they are:
// a cached copy's capacity can be a pool size class, and a storage view's
// bytes are not the pool's to reuse.

// viewPlan decides, from the graph alone, where a payload that must not be
// written may travel. storage names the sources whose records may be served
// as storage views: the walk up from the source reaches a Batch, the first
// copy. copies names the caches whose served elements must be copies: the
// walk up from the cache stops before any Batch, at an operator that may
// write what it is handed. A cache whose walk reaches the root serves its
// own bytes, read-only (Pipeline.Next). order is the validated graph, an
// in-tree: one consumer per node. Without views no source qualifies: an
// unpooled tree, or the channel baseline, hands out no storage views.
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
		case n.IsSource() && p.views && ok && stop.Kind == pipeline.KindBatch:
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
