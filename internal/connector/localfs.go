package connector

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/data"
	"plumber/internal/simfs"
)

// LocalFS serves catalog shards from real files on local disk. Catalogs are
// materialized once into a root directory using the same deterministic
// generator the simulated filesystem uses (simfs.FileContent), so content is
// bit-for-bit identical across backends; reads then go through the OS page
// cache and real file I/O. The simfs fault machinery is reused on the read
// path, so chaos plans behave identically here.
type LocalFS struct {
	root string

	mu        sync.Mutex
	files     map[string]localFile // catalog path -> on-disk location
	observers []ReadObserver
	hint      float64

	// faults is the installed plan's injector, nil when none; every read
	// call consults it, so it is an atomic load rather than a trip through mu.
	faults atomic.Pointer[simfs.Injector]
}

type localFile struct {
	realPath string
	size     int64
}

// NewLocalFS returns an empty local-FS connector rooted at dir (which must
// exist; use os.MkdirTemp and clean up after the run).
func NewLocalFS(dir string) *LocalFS {
	return &LocalFS{root: dir, files: make(map[string]localFile)}
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
	l.mu.Lock()
	l.files[path] = localFile{realPath: real, size: int64(len(content))}
	l.mu.Unlock()
	return nil
}

// Backend implements Connector.
func (l *LocalFS) Backend() string { return "localfs" }

// Stat implements Connector, reporting the registered (written) size.
func (l *LocalFS) Stat(path string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		return 0, fmt.Errorf("localfs: stat %s: no such file", path)
	}
	return f.size, nil
}

// List implements Connector.
func (l *LocalFS) List() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.files))
	for p := range l.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AddObserver implements Connector.
func (l *LocalFS) AddObserver(o ReadObserver) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observers = append(l.observers, o)
}

// RemoveObserver implements Connector (identity match, as in simfs).
func (l *LocalFS) RemoveObserver(o ReadObserver) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.observers[:0]
	for _, ob := range l.observers {
		if !sameObserver(ob, o) {
			kept = append(kept, ob)
		}
	}
	l.observers = kept
}

func sameObserver(a, b ReadObserver) bool {
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb || ta == nil || !ta.Comparable() {
		return false
	}
	return a == b
}

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

// SetFaults implements Connector, reusing the simfs injector verbatim.
func (l *LocalFS) SetFaults(plan *FaultPlan) {
	if plan == nil {
		l.faults.Store(nil)
		return
	}
	l.faults.Store(simfs.NewInjector(*plan))
}

// FaultStats implements Connector.
func (l *LocalFS) FaultStats() FaultStats {
	fi := l.faults.Load()
	if fi == nil {
		return FaultStats{}
	}
	return fi.Stats()
}

func (l *LocalFS) observe(path string, n int64) {
	l.mu.Lock()
	obs := append([]ReadObserver(nil), l.observers...)
	l.mu.Unlock()
	for _, o := range obs {
		o.ObserveRead(path, n)
	}
}

// Open implements Connector.
func (l *LocalFS) Open(path string) (Reader, error) {
	l.mu.Lock()
	f, ok := l.files[path]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("localfs: open %s: no such file", path)
	}
	file, err := os.Open(f.realPath)
	if err != nil {
		return nil, fmt.Errorf("localfs: open %s: %w", path, err)
	}
	return &localReader{fs: l, path: path, f: file}, nil
}

// readAheadPool recycles localReader read-ahead buffers (observeFlushBytes
// each), so reopening shards every epoch does not allocate one per open.
var readAheadPool = sync.Pool{
	New: func() any {
		b := make([]byte, observeFlushBytes)
		return &b
	},
}

// localReader streams one real file with fault injection, offset tracking
// for retry replay, and batched read observation. The file is read through
// one read-ahead buffer: a record reader's three small reads per record
// (header, payload, footer) become one read(2) per observeFlushBytes, while
// faults, read-call counts and offsets stay per logical Read.
type localReader struct {
	fs     *LocalFS
	path   string
	f      *os.File
	off    int64 // logical offset: the next byte Read serves
	closed bool

	// ahead holds file bytes read but not yet served; the file's own offset
	// is off+len(ahead). ra is the pooled buffer ahead is a window of.
	ahead []byte
	ra    *[]byte

	pendingBytes int64
	pendingCalls int64
	stalled      []bool
}

// Read implements io.Reader. Faults fire before any byte is served, so a
// failed read consumes no offset and retries replay the same range. Like a
// read(2) on a regular file, it fills p unless the file ends first.
func (r *localReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("localfs: read %s: closed", r.path)
	}
	if fi := r.fs.faults.Load(); fi != nil {
		delay, err := fi.Inject(r.path, r.off, &r.stalled)
		if delay > 0 {
			time.Sleep(delay)
		}
		if err != nil {
			return 0, err
		}
	}
	n, err := r.fill(p)
	if n > 0 {
		r.off += int64(n)
		r.pendingBytes += int64(n)
		r.pendingCalls++
		if r.pendingBytes >= observeFlushBytes {
			r.flushObservation()
		}
		return n, nil // an error behind served bytes resurfaces on the next call
	}
	return 0, err
}

// fill copies buffered bytes into p, refilling the read-ahead buffer from
// the file until p is full or the file ends (or fails).
func (r *localReader) fill(p []byte) (int, error) {
	n := 0
	for {
		c := copy(p[n:], r.ahead)
		r.ahead = r.ahead[c:]
		n += c
		if n == len(p) {
			return n, nil
		}
		if r.ra == nil {
			r.ra = readAheadPool.Get().(*[]byte)
		}
		m, err := r.f.Read(*r.ra)
		r.ahead = (*r.ra)[:m]
		if m == 0 {
			return n, err
		}
	}
}

// reposition seeks the file to off and drops the read-ahead buffer.
func (r *localReader) reposition(off int64) error {
	if _, err := r.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	r.ahead = nil
	r.off = off
	return nil
}

func (r *localReader) flushObservation() {
	if r.pendingCalls == 0 {
		return
	}
	r.fs.observe(r.path, r.pendingBytes)
	r.pendingBytes, r.pendingCalls = 0, 0
}

// Close implements io.Closer, flushing unpublished read accounting even for
// readers abandoned mid-file.
func (r *localReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.flushObservation()
	if r.ra != nil {
		readAheadPool.Put(r.ra)
		r.ra, r.ahead = nil, nil
	}
	return r.f.Close()
}

// Path implements Reader.
func (r *localReader) Path() string { return r.path }

// Offset implements Reader.
func (r *localReader) Offset() int64 { return r.off }

// SkipTo fast-forwards past bytes a previous reader already served (and
// observed) via a real seek; the skipped prefix is not re-observed. Used by
// the engine's live-reconfiguration resume.
func (r *localReader) SkipTo(off int64) error {
	if r.closed {
		return fmt.Errorf("localfs: skip %s: closed", r.path)
	}
	if off < r.off {
		return fmt.Errorf("localfs: skip %s: offset %d before current %d", r.path, off, r.off)
	}
	if err := r.reposition(off); err != nil {
		return fmt.Errorf("localfs: skip %s: %w", r.path, err)
	}
	return nil
}

// Rewind implements Reader via a real seek; bytes served again after a
// rewind are observed again, like a real re-fetch.
func (r *localReader) Rewind(off int64) error {
	if r.closed {
		return fmt.Errorf("localfs: rewind %s: closed", r.path)
	}
	if off < 0 || off > r.off {
		return fmt.Errorf("localfs: rewind %s: offset %d out of range [0, %d]", r.path, off, r.off)
	}
	if err := r.reposition(off); err != nil {
		return fmt.Errorf("localfs: rewind %s: %w", r.path, err)
	}
	return nil
}
