// Package data defines the values that flow through input pipelines
// (Element, §2.1's unit of work), a TFRecord-compatible on-disk framing
// format, and synthetic dataset catalogs whose shape statistics (file
// counts, record sizes, decode-amplification factors) match the datasets
// used in the Plumber paper (§5, Table 1): ImageNet, COCO, and the
// WMT16/WMT17 translation corpora.
package data

// Element is one unit of work flowing between pipeline operators. Before
// batching an Element is a single training example; after batching it is a
// minibatch of Count examples.
//
// Payload carries real bytes when the pipeline runs on the real engine. The
// simulator propagates only Size so that terabyte-scale datasets can be
// modeled without allocating them; code must therefore always consult Size,
// never len(Payload), for accounting.
//
// # Payload ownership
//
// Ownership of Payload transfers downstream with the Element: the operator
// that receives an element from its child owns the payload and may mutate,
// truncate, or recycle it. The rules the engine relies on are:
//
//   - An operator that copies the payload out (Batch concatenates child
//     payloads into a fresh buffer) may return the child's buffer to the
//     pool with PutBuf once the copy is complete.
//   - An operator that retains an element beyond the current Next call
//     while also passing it downstream (Cache) keeps a Clone and passes the
//     original on, to be recycled like any other. What it later serves from
//     its copy is read-only and carries a no-op Owner (next rules): the same
//     bytes are served again every epoch.
//   - Holding elements and later releasing each exactly once (Shuffle,
//     Prefetch buffers) is pass-through and needs no copy.
//   - UDF bodies must not retain the input payload after returning when
//     buffer pooling is enabled; the returned element may alias the input.
//   - A payload with a non-nil Owner is a borrowed view (a sub-slice of an
//     arena block, of a connector's storage, or a cache's copy — not a
//     pooled buffer): it must be released through Owner.ReleasePayload,
//     never through PutBuf — an arena view's capacity is not a pool size
//     class, and returning a view to the pool while its backing bytes are
//     still live would hand them to two owners.
//   - A storage view (whose backing bytes are the connector's own copy of
//     the dataset) and a cache-served payload are additionally read-only: a
//     write through one would corrupt the catalog, or the cache, for every
//     later reader. No operator has to know which kind it holds, because the
//     engine only emits one where no operator writes before the first copy:
//     every stage between it and the next Batch passes payloads through
//     untouched, and a UDF Body (which may mutate its input, per the first
//     rule) anywhere in that stretch makes the source or cache copy instead.
//     The pipeline's consumer is the one reader the engine cannot see: a
//     root element a cache served is read-only to it too, so a consumer that
//     writes what it is given must Clone it first.
type Element struct {
	// Payload is the materialized content, possibly nil in simulation.
	Payload []byte
	// Owner, when non-nil, owns Payload's backing storage (an engine arena
	// block, or the connector's storage or a cache's copy behind a no-op
	// owner). The element
	// holds one reference; whoever retires the element releases it exactly
	// once via ReleasePayload. Nil means Payload is pool-allocated (PutBuf)
	// or garbage-collected.
	Owner PayloadOwner
	// Size is the logical size in bytes. Invariant: if Payload != nil then
	// Size == int64(len(Payload)).
	Size int64
	// Count is the number of training examples contained (>= 1; batch size
	// after a Batch operator).
	Count int
	// Index is a monotonically increasing sequence number assigned by the
	// producing source, used by deterministic tests.
	Index int64
}

// PayloadOwner owns the backing storage of a borrowed payload view.
// ReleasePayload returns the view's reference; implementations recycle the
// underlying block once every view into it has been released.
type PayloadOwner interface {
	ReleasePayload(p []byte)
}

// Clone returns a deep copy of the element. The copy owns its own storage:
// it drops any Owner, and the original's reference stays with the original.
func (e Element) Clone() Element {
	out := e
	out.Owner = nil
	if e.Payload != nil {
		out.Payload = append([]byte(nil), e.Payload...)
	}
	return out
}

// WithSize returns a copy of e resized to size bytes. If e carries a real
// payload, the payload is truncated or zero-extended to match, preserving
// the Payload/Size invariant.
func (e Element) WithSize(size int64) Element {
	out := e
	out.Size = size
	if out.Payload != nil {
		if int64(len(out.Payload)) >= size {
			out.Payload = out.Payload[:size]
		} else {
			grown := make([]byte, size)
			copy(grown, out.Payload)
			out.Payload = grown
			// Fresh storage: the copy is not a borrowed view. The caller
			// still holds (and must release) the original's reference.
			out.Owner = nil
		}
	}
	return out
}
