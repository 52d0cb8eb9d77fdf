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
// A payload is either owned or read-only. Ownership of an owned payload
// transfers downstream with the Element: the operator that receives an
// element from its child owns the payload and may mutate, truncate, or
// recycle it. The rules the engine relies on are:
//
//   - An operator that copies the payload out (Batch concatenates child
//     payloads into a fresh buffer) may return the child's buffer to the
//     pool with PutBuf once the copy is complete.
//   - An operator that retains an element beyond the current Next call
//     while also passing it downstream (Cache) keeps a Clone and passes the
//     original on, to be recycled like any other. What it later serves from
//     its copy is read-only (next rule): the same bytes are served again
//     every epoch.
//   - Holding elements and later releasing each exactly once (Shuffle,
//     Prefetch buffers) is pass-through and needs no copy.
//   - UDF bodies must not retain the input payload after returning when
//     buffer pooling is enabled; the returned element may alias the input.
//   - A payload marked ReadOnly is a view of bytes nobody downstream owns: a
//     slice of a connector's storage (the dataset every other reader is
//     served from) or a cache's copy. It is never recycled — its capacity
//     can be a pool size class, and handing it to PutBuf would give its
//     bytes a second owner — and never written: a write would corrupt the
//     catalog, or the cache, for every later reader. No operator has to
//     check the flag before writing, because the engine only emits one
//     where no operator writes before the first copy: every stage between
//     it and the next Batch passes payloads through untouched, and a UDF
//     Body (which may mutate its input, per the first rule) anywhere in that
//     stretch makes the source or cache copy instead. The pipeline's
//     consumer is the one reader the engine cannot see: a root element a
//     cache served is read-only to it too, so a consumer that writes what it
//     is given must Clone it first.
type Element struct {
	// Payload is the materialized content, possibly nil in simulation.
	Payload []byte
	// ReadOnly marks a Payload that is a view of storage the element does not
	// own (a connector's storage or a cache's copy): it is never written and
	// never recycled. Otherwise Payload is pool-allocated (PutBuf) or
	// garbage-collected.
	ReadOnly bool
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

// Clone returns a deep copy of the element. The copy owns its own storage,
// so it is never ReadOnly.
func (e Element) Clone() Element {
	out := e
	out.ReadOnly = false
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
			// Fresh storage: the copy is not a view. The caller still owns
			// (and must release) the original.
			out.ReadOnly = false
		}
	}
	return out
}
