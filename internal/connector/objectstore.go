package connector

import (
	"math"
	"time"

	"plumber/internal/data"
	"plumber/internal/simfs"
	"plumber/internal/stats"
)

// ObjectStoreConfig models an S3-like object store: every range request
// pays a base latency with a log-normal tail, a reader fetches the object
// in fixed-size ranges with several requests in flight, per-stream
// throughput is capped, and a cold store serves slowly until its frontend
// ramps up.
type ObjectStoreConfig struct {
	// Name labels the store (device name in hints and errors).
	Name string
	// RequestLatency is the base per-range-request latency.
	RequestLatency time.Duration
	// TailSigma is the log-normal sigma on request latency (0 = fixed).
	TailSigma float64
	// RangeBytes is the range-read granularity (default 4 MiB).
	RangeBytes int64
	// ParallelRanges is how many range requests a reader keeps in flight;
	// request latency amortizes across them (default 4).
	ParallelRanges int
	// PerStreamBandwidth caps one reader's throughput in bytes/s (0 = off).
	PerStreamBandwidth float64
	// TotalBandwidth is the store's aggregate bandwidth hint in bytes/s
	// for the arbiter's disk water-filling (0 = unknown).
	TotalBandwidth float64
	// ColdStartSeconds and ColdStartFactor model a cold store: request
	// latency is multiplied by ColdStartFactor at creation, decaying
	// linearly to 1 over ColdStartSeconds (0 disables).
	ColdStartSeconds float64
	ColdStartFactor  float64
	// Seed drives the latency tail draws (per reader, xor'd with the path
	// hash so streams are decorrelated but deterministic).
	Seed uint64
}

func (c ObjectStoreConfig) withDefaults() ObjectStoreConfig {
	if c.RangeBytes <= 0 {
		c.RangeBytes = 4 << 20
	}
	if c.ParallelRanges <= 0 {
		c.ParallelRanges = 4
	}
	if c.ColdStartFactor < 1 {
		c.ColdStartFactor = 1
	}
	return c
}

// ObjectStore is the modeled object-store backend. Object content and the
// fault machinery live on an inner in-memory simfs (so chaos plans, read
// observation, and byte-identical content come for free); this wrapper adds
// the object-store latency model on top of every reader.
type ObjectStore struct {
	inner *simfs.FS
	cfg   ObjectStoreConfig
	start time.Time
}

// NewObjectStore returns a store serving the inner filesystem's files
// through the latency model. The cold-start clock begins now.
func NewObjectStore(inner *simfs.FS, cfg ObjectStoreConfig) *ObjectStore {
	return &ObjectStore{inner: inner, cfg: cfg.withDefaults(), start: time.Now()}
}

// NewMemObjectStore builds a store over a fresh in-memory filesystem
// populated with the catalog — the common construction for scenarios.
func NewMemObjectStore(c data.Catalog, seed uint64, cfg ObjectStoreConfig) *ObjectStore {
	fs := simfs.New(simfs.Device{Name: cfg.Name}, false)
	fs.AddCatalog(c, seed)
	return NewObjectStore(fs, cfg)
}

// Backend implements Connector.
func (s *ObjectStore) Backend() string { return "objectstore" }

// Stat implements Connector.
func (s *ObjectStore) Stat(path string) (int64, error) { return s.inner.Stat(path) }

// List implements Connector.
func (s *ObjectStore) List() []string { return s.inner.List() }

// AddObserver implements Connector.
func (s *ObjectStore) AddObserver(o ReadObserver) { s.inner.AddObserver(o) }

// RemoveObserver implements Connector.
func (s *ObjectStore) RemoveObserver(o ReadObserver) { s.inner.RemoveObserver(o) }

// SetFaults implements Connector (delegated to the inner simfs injector).
func (s *ObjectStore) SetFaults(plan *FaultPlan) { s.inner.SetFaults(plan) }

// FaultStats implements Connector.
func (s *ObjectStore) FaultStats() FaultStats { return s.inner.FaultStats() }

// BandwidthHint implements Connector.
func (s *ObjectStore) BandwidthHint() float64 {
	if s.cfg.TotalBandwidth <= 0 || math.IsInf(s.cfg.TotalBandwidth, 1) {
		return 0
	}
	return s.cfg.TotalBandwidth
}

// coldFactor is the current cold-start latency multiplier (>= 1).
func (s *ObjectStore) coldFactor() float64 {
	if s.cfg.ColdStartSeconds <= 0 || s.cfg.ColdStartFactor <= 1 {
		return 1
	}
	frac := time.Since(s.start).Seconds() / s.cfg.ColdStartSeconds
	if frac >= 1 {
		return 1
	}
	return s.cfg.ColdStartFactor - (s.cfg.ColdStartFactor-1)*frac
}

// Open implements Connector.
func (s *ObjectStore) Open(path string) (Reader, error) {
	inner, err := s.inner.Open(path)
	if err != nil {
		return nil, err
	}
	r := &objectReader{Reader: inner, store: s}
	r.reset(path)
	return r, nil
}

// objectReader adds the request-latency model over the simfs reader it
// embeds: crossing into each new range pays one (amortized, possibly cold,
// possibly tail-inflated) request latency, and the per-stream bandwidth cap
// paces the byte flow. Faults, observation, Close, Path and Offset are the
// embedded reader's. So is Rewind, which pays nothing: replayed ranges were
// already fetched into the client's window, so a rewind inside the paid
// range pays no new request latency. Reopen starts the latency model over,
// as Open does: the prefix before its offset transfers nothing (a real store
// would simply issue its first range request from there), and the first
// read at the new offset pays one request.
type objectReader struct {
	*simfs.Reader
	store *ObjectStore
	rng   stats.RNG // by value, so an open allocates no RNG of its own

	start       time.Time
	served      int64 // bytes served, for stream pacing
	paidThrough int64 // offsets below this are in already-fetched ranges
}

// Reopen implements Reader.
func (r *objectReader) Reopen(path string, off int64) error {
	if err := r.Reader.Reopen(path, off); err != nil {
		return err
	}
	r.reset(path)
	return nil
}

// reset starts the latency model over, its draws seeded from path.
func (r *objectReader) reset(path string) {
	r.rng = *stats.NewRNG(r.store.cfg.Seed ^ fnv64(path))
	r.start, r.served, r.paidThrough = time.Now(), 0, 0
}

// Read implements io.Reader.
func (r *objectReader) Read(p []byte) (int, error) {
	r.request()
	n, err := r.Reader.Read(p)
	r.pace(n)
	return n, err
}

// View implements Viewer: the same request latency and stream pacing as
// Read, around the inner reader's view of the object's bytes.
func (r *objectReader) View(n int) ([]byte, error) {
	r.request()
	v, err := r.Reader.View(n)
	r.pace(len(v))
	return v, err
}

// request pays one range request's latency when the next byte lies past the
// ranges already fetched.
func (r *objectReader) request() {
	cfg := &r.store.cfg
	off := r.Offset()
	if off < r.paidThrough || cfg.RequestLatency <= 0 {
		return
	}
	lat := float64(cfg.RequestLatency)
	if cfg.TailSigma > 0 {
		lat *= r.rng.LogNormal(0, cfg.TailSigma)
	}
	lat *= r.store.coldFactor()
	lat /= float64(cfg.ParallelRanges)
	time.Sleep(time.Duration(lat))
	r.paidThrough = off + cfg.RangeBytes
}

// pace holds the stream to its per-stream bandwidth after n served bytes.
func (r *objectReader) pace(n int) {
	if n <= 0 {
		return
	}
	r.served += int64(n)
	bw := r.store.cfg.PerStreamBandwidth
	if bw <= 0 {
		return
	}
	expected := time.Duration(float64(r.served) / bw * float64(time.Second))
	if ahead := expected - time.Since(r.start); ahead > 0 {
		time.Sleep(ahead)
	}
}

func fnv64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
