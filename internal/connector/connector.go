// Package connector defines the narrow storage interface the engine reads
// training data through, with three backends behind it, all serving their
// bytes through internal/simfs's one reader and fault path: an adapter over
// the in-memory simulated filesystem, a local-FS backend that materializes
// catalogs to real files and registers them with a simfs as files on disk,
// and a modeled object-store backend over an in-memory simfs, with request
// latency, parallel range reads, log-normal tails, and a cold-start ramp.
//
// The interface is deliberately small — Open/Stat/List plus the three
// contracts the rest of the system depends on (a Reader may also implement
// one optional extension, Viewer, a read that hands out the backend's own
// bytes instead of copying them; it keeps the contracts below):
//
//   - Rewind: a reader repositions to a recorded offset so a framed-record
//     read that failed mid-record replays the exact same byte range under
//     the engine's retry policy.
//   - Observation: every served byte eventually reaches the registered
//     ReadObservers (the tracer), with the remainder flushed on Close even
//     when a reader is abandoned mid-file.
//   - Faults: SetFaults installs a seeded simfs.FaultPlan on the backend's
//     read path, so chaos experiments and failure isolation behave the same
//     regardless of where the bytes live.
//
// BandwidthHint lets the host arbiter water-fill the global disk budget
// across tenants on heterogeneous backends instead of splitting blindly by
// weight.
package connector

import (
	"io"

	"plumber/internal/simfs"
)

// Aliases re-export the simfs observation and fault vocabulary so connector
// consumers (and implementations outside simfs) need no direct simfs import.
// These are aliases, not new types: a *simfs.FS's own methods satisfy the
// Connector interface directly.
type (
	// Device models the storage a simfs-backed connector serves from.
	Device = simfs.Device
	// ReadObserver receives a callback for observed reads (the tracer).
	ReadObserver = simfs.ReadObserver
	// ObserverFunc adapts a function to ReadObserver.
	ObserverFunc = simfs.ObserverFunc
	// FaultPlan is a seeded set of fault rules (see simfs.FaultPlan).
	FaultPlan = simfs.FaultPlan
	// FaultRule injects one fault class on matching paths.
	FaultRule = simfs.FaultRule
	// FaultError is the typed error injected by a plan; Transient() tells
	// the engine's retrier whether a retry may succeed.
	FaultError = simfs.FaultError
	// FaultStats counts what an installed plan actually injected.
	FaultStats = simfs.FaultStats
)

// Reader streams one file's bytes. Offset/Rewind support the engine's
// retry-replay contract: a failed framed-record read rewinds to the offset
// recorded before the attempt and replays the same range. Close flushes any
// unpublished read observation, including on abandoned readers.
type Reader interface {
	io.Reader
	io.Closer
	// Path returns the catalog path backing the reader.
	Path() string
	// Offset returns the current byte offset into the file.
	Offset() int64
	// Rewind repositions to an earlier offset (0 <= off <= Offset()).
	Rewind(off int64) error
	// SkipTo repositions to a later offset (off >= Offset()) without
	// serving, re-observing or paying for the skipped bytes. The engine's
	// live-reconfiguration resume uses it to reopen a partially-read shard
	// at the quiesce barrier without double-counting the prefix a previous
	// reader already consumed.
	SkipTo(off int64) error
}

// Viewer is the optional zero-copy extension of Reader, for backends whose
// bytes are already in memory: View serves the next n bytes as a slice of
// the backend's own storage instead of copying them into the caller's
// buffer. One View call is one Read call in every other respect — the fault
// plan is consulted once before any byte is served (a faulted View consumes
// no offset), the bytes and the call reach ReadObservers and the backend's
// counters through the same batched flush, throttling and modeled latency
// apply, and Offset/Rewind/SkipTo see the bytes as served. With fewer than n
// bytes left View serves the remainder and returns io.ErrUnexpectedEOF; at
// end of file it returns io.EOF.
//
// The slice is read-only: it aliases the dataset every other reader of the
// connector is served from, so a write through it corrupts the catalog for
// the rest of the process. It is capped at its length (an append
// reallocates) and stays valid after Close. The simfs adapter and the
// object store implement Viewer; LocalFS, which has nothing in memory to
// alias, does not. The engine reads through it only on chains where it can
// prove that no operator writes a record before the first copy (see
// engine/views.go).
type Viewer interface {
	View(n int) ([]byte, error)
}

// Connector is a storage backend serving one catalog's shards.
type Connector interface {
	// Backend names the implementation: "simfs", "localfs", "objectstore".
	Backend() string
	// Open returns a reader over the file's framed content.
	Open(path string) (Reader, error)
	// Stat returns the framed size of a file.
	Stat(path string) (int64, error)
	// List returns all registered paths in sorted order.
	List() []string

	// AddObserver registers a read observer; RemoveObserver detaches it
	// (identity-matched; uncomparable observer types are left in place).
	AddObserver(o ReadObserver)
	RemoveObserver(o ReadObserver)

	// BandwidthHint is the backend's sustainable aggregate read bandwidth
	// in bytes/s, or 0 when unknown/unbounded. The host arbiter uses it to
	// water-fill the global disk budget across heterogeneous backends.
	BandwidthHint() float64

	// SetFaults installs a fault plan on the read path (nil clears);
	// FaultStats reports what the installed plan has injected so far.
	SetFaults(plan *FaultPlan)
	FaultStats() FaultStats
}
