package connector

import (
	"math"

	"plumber/internal/simfs"
)

// SimFS adapts an in-memory simulated filesystem to the Connector
// interface. The embedded *simfs.FS provides Stat, List, observer
// registration, and the fault machinery unchanged (the connector package's
// observer/fault types are aliases of the simfs ones), so behavior through
// the adapter is bit-for-bit what direct simfs access produced; only Open is
// wrapped, to lift *simfs.Reader into the Reader interface.
type SimFS struct {
	*simfs.FS
}

// FromSimFS wraps an existing filesystem as a Connector.
func FromSimFS(fs *simfs.FS) *SimFS {
	return &SimFS{FS: fs}
}

// NewSimFS returns a connector over a fresh in-memory filesystem on dev. If
// throttle is true, its readers sleep in real time to honor the device's
// bandwidth, so a SetBandwidth mid-run changes the delivered rate.
func NewSimFS(dev Device, throttle bool) *SimFS {
	return FromSimFS(simfs.New(dev, throttle))
}

// NewMem returns a connector over a fresh unthrottled in-memory filesystem —
// the common construction for tests and in-memory experiments.
func NewMem(name string) *SimFS {
	return NewSimFS(Device{Name: name}, false)
}

// Backend implements Connector.
func (s *SimFS) Backend() string { return "simfs" }

// Open implements Connector.
func (s *SimFS) Open(path string) (Reader, error) {
	r, err := s.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// BandwidthHint reports the device model's total bandwidth; unbounded
// (infinite or unset) devices report 0.
func (s *SimFS) BandwidthHint() float64 {
	bw := s.FS.Device().TotalBandwidth
	if bw <= 0 || math.IsInf(bw, 1) {
		return 0
	}
	return bw
}
