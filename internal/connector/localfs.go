package connector

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"plumber/internal/data"
	"plumber/internal/simfs"
)

// LocalFS serves catalog shards from real files on local disk. Catalogs are
// materialized once into a root directory using the same deterministic
// generator the simulated filesystem uses (simfs.FileContent), so content is
// bit-for-bit identical across backends. The files are registered with a
// private simfs, which reads them through real file I/O on the same reader
// every other backend uses, so observation, rewinds and chaos plans behave
// identically here. Its readers offer no Viewer: nothing is in memory to
// alias.
type LocalFS struct {
	root  string
	files *simfs.FS

	mu   sync.Mutex
	hint float64
}

// NewLocalFS returns an empty local-FS connector rooted at dir (which must
// exist; use os.MkdirTemp and clean up after the run).
func NewLocalFS(dir string) *LocalFS {
	return &LocalFS{root: dir, files: simfs.New(simfs.Device{Name: "localfs"}, false)}
}

// Root returns the backing directory.
func (l *LocalFS) Root() string { return l.root }

// MaterializeCatalog writes every shard of the catalog to disk under the
// root and registers it. Catalog paths like /data/name/shard.tfrecord map to
// <root>/data/name/shard.tfrecord.
func (l *LocalFS) MaterializeCatalog(c data.Catalog, seed uint64) error {
	for _, spec := range c.GenerateFileSpecs(seed) {
		if err := l.Add(spec.Name, simfs.FileContent(spec, seed)); err != nil {
			return err
		}
	}
	return nil
}

// Add writes content to disk under the root and registers it at path. It is
// also the hook for tests that need deliberately truncated or corrupted
// files on a real filesystem.
func (l *LocalFS) Add(path string, content []byte) error {
	real := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "/")))
	if err := os.MkdirAll(filepath.Dir(real), 0o755); err != nil {
		return fmt.Errorf("localfs: add %s: %w", path, err)
	}
	if err := os.WriteFile(real, content, 0o644); err != nil {
		return fmt.Errorf("localfs: add %s: %w", path, err)
	}
	l.files.AddDiskFile(path, real, int64(len(content)))
	return nil
}

// Backend implements Connector.
func (l *LocalFS) Backend() string { return "localfs" }

// Open implements Connector. The wrapper hides the reader's View, which
// fails on a file on disk.
func (l *LocalFS) Open(path string) (Reader, error) {
	r, err := l.files.Open(path)
	if err != nil {
		return nil, err
	}
	return struct{ Reader }{r}, nil
}

// Stat implements Connector, reporting the registered (written) size.
func (l *LocalFS) Stat(path string) (int64, error) { return l.files.Stat(path) }

// List implements Connector.
func (l *LocalFS) List() []string { return l.files.List() }

// AddObserver implements Connector.
func (l *LocalFS) AddObserver(o ReadObserver) { l.files.AddObserver(o) }

// RemoveObserver implements Connector.
func (l *LocalFS) RemoveObserver(o ReadObserver) { l.files.RemoveObserver(o) }

// SetFaults implements Connector.
func (l *LocalFS) SetFaults(plan *FaultPlan) { l.files.SetFaults(plan) }

// FaultStats implements Connector.
func (l *LocalFS) FaultStats() FaultStats { return l.files.FaultStats() }

// SetBandwidthHint records the local device's sustainable bandwidth in
// bytes/s for the arbiter's disk water-filling (0 = unknown).
func (l *LocalFS) SetBandwidthHint(bw float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hint = bw
}

// BandwidthHint implements Connector.
func (l *LocalFS) BandwidthHint() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hint
}
