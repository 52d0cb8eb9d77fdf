package simfs

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/data"
	"plumber/internal/stats"
)

// ReadObserver receives a callback for every filesystem read, mirroring
// Plumber's instrumentation of all read() calls inside tf.data (§4.1).
type ReadObserver interface {
	ObserveRead(path string, n int64)
}

// ObserverFunc adapts a function to the ReadObserver interface.
type ObserverFunc func(path string, n int64)

// ObserveRead implements ReadObserver.
func (f ObserverFunc) ObserveRead(path string, n int64) { f(path, n) }

// FS is a filesystem of TFRecord shards backed by a device model. Generated
// shards live in memory: their content is generated lazily and
// deterministically from the file spec, so petabyte catalogs can be
// registered cheaply and only the files actually read are materialized.
// Files registered with AddDiskFile live on disk instead and are read
// through the same reader, so faults, observation and offsets behave the
// same wherever the bytes are.
type FS struct {
	device   Device
	bucket   *TokenBucket
	throttle bool // if true, Open'd readers sleep to honor the bucket
	// epoch anchors the bucket's virtual clock for throttled readers. All
	// readers share one bucket, so they must share one clock: feeding each
	// reader's own elapsed-since-open time would rewind the bucket whenever
	// a shard is reopened (every interleave epoch), starving refills.
	epoch time.Time

	mu        sync.Mutex
	files     map[string]*fileEntry
	observers []ReadObserver
	bytesRead int64
	readCalls int64

	// faults is the installed plan's injector, nil when none. Every read
	// call consults it, so it is an atomic load rather than a trip through mu.
	faults atomic.Pointer[injector]
}

type fileEntry struct {
	spec data.FileSpec
	seed uint64
	disk string // the real path of a file registered by AddDiskFile

	once    sync.Once
	content []byte
}

// New returns an empty filesystem on the given device. If throttle is true,
// readers sleep in real time to honor the device's token bucket; experiments
// on the simulator leave it false and account bandwidth in virtual time.
func New(device Device, throttle bool) *FS {
	return &FS{
		device:   device,
		bucket:   NewTokenBucket(device.TotalBandwidth, device.TotalBandwidth/4),
		throttle: throttle,
		epoch:    time.Now(),
		files:    make(map[string]*fileEntry),
	}
}

// Device returns the filesystem's device model (the nominal spec the
// filesystem was created with; SetBandwidth does not rewrite it).
func (fs *FS) Device() Device { return fs.device }

// SetBandwidth changes the device's aggregate read bandwidth in place.
// Readers already open observe the new rate on their next read. The nominal
// Device spec is left untouched — this models the *delivered* bandwidth
// drifting away from the provisioned one (a contended disk, a throttled
// object store), which is exactly the drift the live-reconfiguration
// doctor watches for.
func (fs *FS) SetBandwidth(bytesPerSec float64) {
	fs.bucket.SetRate(bytesPerSec)
}

// Bandwidth returns the currently delivered aggregate bandwidth.
func (fs *FS) Bandwidth() float64 { return fs.bucket.Rate() }

// AddObserver registers a read observer; used by the tracer.
func (fs *FS) AddObserver(o ReadObserver) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.observers = append(fs.observers, o)
}

// RemoveObserver detaches a previously registered observer, so short-lived
// collectors (benchmark reps) do not keep receiving reads after their run.
// Observers of uncomparable dynamic types (such as the ObserverFunc
// adapter) cannot be matched by identity and are left in place; register a
// pointer type if removal is needed.
func (fs *FS) RemoveObserver(o ReadObserver) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kept := fs.observers[:0]
	for _, ob := range fs.observers {
		if !sameObserver(ob, o) {
			kept = append(kept, ob)
		}
	}
	fs.observers = kept
}

// sameObserver reports identity without panicking on uncomparable dynamic
// types (comparing two func-typed interface values is a runtime panic).
func sameObserver(a, b ReadObserver) bool {
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb || ta == nil || !ta.Comparable() {
		return false
	}
	return a == b
}

// AddCatalog registers every shard of a catalog, generated with seed.
func (fs *FS) AddCatalog(c data.Catalog, seed uint64) {
	for _, spec := range c.GenerateFileSpecs(seed) {
		fs.AddFile(spec, seed)
	}
}

// AddFile registers a single shard spec.
func (fs *FS) AddFile(spec data.FileSpec, seed uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[spec.Name] = &fileEntry{spec: spec, seed: seed}
}

// AddDiskFile registers the size bytes at realPath on disk as path. Readers
// open the real file and read it through a pooled read-ahead buffer; a
// later registration of path replaces this one.
func (fs *FS) AddDiskFile(path, realPath string, size int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = &fileEntry{spec: data.FileSpec{Name: path, TotalBytes: size}, disk: realPath}
}

// Stat returns the framed size of a file.
func (fs *FS) Stat(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("simfs: stat %s: no such file", path)
	}
	return f.spec.TotalBytes, nil
}

// List returns all registered paths in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TotalBytesRead reports aggregate bytes served since creation.
func (fs *FS) TotalBytesRead() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesRead
}

// ReadCalls reports the number of Read invocations served.
func (fs *FS) ReadCalls() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.readCalls
}

func (fs *FS) observe(path string, n, calls int64) {
	fs.mu.Lock()
	fs.bytesRead += n
	fs.readCalls += calls
	obs := append([]ReadObserver(nil), fs.observers...)
	fs.mu.Unlock()
	for _, o := range obs {
		o.ObserveRead(path, n)
	}
}

// materialize generates the shard's framed content on first access.
func (e *fileEntry) materialize() []byte {
	e.once.Do(func() {
		e.content = FileContent(e.spec, e.seed)
	})
	return e.content
}

// FileContent generates the deterministic framed TFRecord bytes for a shard
// spec under a catalog seed — the exact bytes a simfs Reader would serve.
// Other backends (the local-FS connector) use it to materialize catalogs so
// that every backend agrees on content bit-for-bit.
func FileContent(spec data.FileSpec, seed uint64) []byte {
	rng := stats.NewRNG(seed ^ hash64(spec.Name))
	var buf writeBuffer
	buf.grow(int(spec.TotalBytes))
	w := data.NewRecordWriter(&buf)
	payload := make([]byte, 0)
	for _, sz := range spec.RecordSizes {
		if int64(cap(payload)) < sz {
			payload = make([]byte, sz)
		}
		payload = payload[:sz]
		fill(payload, rng)
		if err := w.Write(payload); err != nil {
			panic(fmt.Sprintf("simfs: materializing %s: %v", spec.Name, err))
		}
	}
	return buf.b
}

// fill writes deterministic pseudo-random bytes; only the first words of
// each 64-byte block are randomized to keep generation cheap.
func fill(b []byte, rng *stats.RNG) {
	for i := 0; i < len(b); i += 64 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

type writeBuffer struct{ b []byte }

func (w *writeBuffer) grow(n int) {
	if cap(w.b) < n {
		w.b = make([]byte, 0, n)
	}
}

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func hash64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// observeFlushBytes is how many served bytes a Reader accumulates before
// publishing them to the filesystem counters and observers. Record readers
// issue several small Read calls per record; flushing observation in large
// batches keeps the fs mutex and the tracer's ObserveRead off the per-record
// hot path while total accounting stays exact (the remainder is flushed at
// EOF and on Close).
const observeFlushBytes = 128 << 10

// readAheadPool recycles the read-ahead buffers of readers over disk files
// (observeFlushBytes each), so reopening shards every epoch does not
// allocate one per open.
var readAheadPool = sync.Pool{
	New: func() any {
		b := make([]byte, observeFlushBytes)
		return &b
	},
}

// Reader streams one file's bytes with instrumentation and (optionally)
// real-time throttling against the device token bucket.
type Reader struct {
	fs     *FS
	path   string
	buf    []byte // the file's bytes; nil for a file on disk
	size   int
	off    int
	closed bool

	// disk is the open file behind a disk-registered path. It is read
	// through one read-ahead buffer: a record reader's three small reads
	// per record (header, payload, footer) become one pread(2) per
	// observeFlushBytes, while faults, read-call counts and offsets stay per
	// logical Read. ahead holds the file's bytes from aheadOff on, and is a
	// window of the pooled buffer ra.
	disk     *os.File
	ra       *[]byte
	ahead    []byte
	aheadOff int

	pendingBytes int64
	pendingCalls int64
	stalled      stallLatch // per-fault-rule mid-read stall latch
}

// Open returns a reader over the file's framed content.
func (fs *FS) Open(path string) (*Reader, error) {
	r := &Reader{fs: fs, closed: true}
	if err := r.Reopen(path, 0); err != nil {
		return nil, err
	}
	return r, nil
}

// Reopen closes the reader's file exactly as Close does, then serves path
// from off: the bytes before off are not served, observed or paid for, and
// the fault plan sees the new file as it sees a fresh reader's. A reader
// moved from file to file this way allocates nothing for the move (a file on
// disk still opens its *os.File, and keeps the pooled read-ahead buffer). A
// failed Reopen leaves the reader closed; Reopen may be called again.
func (r *Reader) Reopen(path string, off int64) error {
	r.closeFile()
	r.fs.mu.Lock()
	f, ok := r.fs.files[path]
	r.fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("simfs: open %s: no such file", path)
	}
	if off < 0 || off > f.spec.TotalBytes {
		return fmt.Errorf("simfs: open %s: offset %d out of range [0, %d]", path, off, f.spec.TotalBytes)
	}
	r.path, r.buf, r.disk, r.ahead, r.size, r.off = path, nil, nil, nil, int(f.spec.TotalBytes), int(off)
	var err error
	if f.disk == "" {
		r.buf = f.materialize()
		r.size = len(r.buf)
	} else if r.disk, err = os.Open(f.disk); err != nil {
		return fmt.Errorf("simfs: open %s: %w", path, err)
	}
	r.closed = false
	clear(r.stalled.fired) // in place: the injector indexes it by rule
	return nil
}

// Read implements io.Reader with read accounting and optional throttling.
// Like a read(2) on a regular file, it fills p unless the file ends first.
func (r *Reader) Read(p []byte) (int, error) {
	if err := r.begin(); err != nil {
		return 0, err
	}
	if r.disk == nil {
		n := copy(p, r.buf[r.off:])
		r.served(n)
		return n, nil
	}
	n, err := r.readDisk(p[:min(len(p), r.size-r.off)])
	if n == 0 && err != nil {
		return 0, err
	}
	r.served(n)
	return n, nil // an error behind served bytes resurfaces on the next call
}

// readDisk copies the file's bytes from the reader's offset into p, through
// the read-ahead window, refilling the window until p is full or the file
// ends (or fails).
func (r *Reader) readDisk(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		at := r.off + n
		if i := at - r.aheadOff; i >= 0 && i < len(r.ahead) {
			n += copy(p[n:], r.ahead[i:])
			continue
		}
		if r.ra == nil {
			r.ra = readAheadPool.Get().(*[]byte)
		}
		m, err := r.disk.ReadAt(*r.ra, int64(at))
		r.ahead, r.aheadOff = (*r.ra)[:m], at
		if m == 0 {
			return n, err
		}
	}
	return n, nil
}

// View serves the next n bytes as a read-only slice of the shard's own
// storage instead of copying them out: one call is one Read call in every
// other respect (fault injection before any byte is served, read accounting
// and observer flushes, throttling, offset). With fewer than n bytes left it
// serves what remains and returns io.ErrUnexpectedEOF, as io.ReadFull would;
// at end of file it returns io.EOF. The slice is capped at its length, so an
// append reallocates, but the bytes are the filesystem's: callers must never
// write through it. A file on disk has no bytes in memory to view: View
// fails before the call counts as a read.
func (r *Reader) View(n int) ([]byte, error) {
	if r.disk != nil {
		return nil, fmt.Errorf("simfs: view %s: the file is on disk, not in memory", r.path)
	}
	if err := r.begin(); err != nil {
		return nil, err
	}
	end := r.off + n
	short := end > len(r.buf)
	if short {
		end = len(r.buf)
	}
	v := r.buf[r.off:end:end]
	r.served(len(v))
	if short {
		return v, io.ErrUnexpectedEOF
	}
	return v, nil
}

// begin is the part of a read call that runs before any byte is served.
// Faults fire here: a failed read consumes no offset, so retries replay the
// exact same range.
func (r *Reader) begin() error {
	if r.closed {
		return fmt.Errorf("simfs: read %s: closed", r.path)
	}
	if r.off >= r.size {
		return io.EOF
	}
	if fi := r.fs.faults.Load(); fi != nil {
		delay, err := fi.Inject(r.path, int64(r.off), &r.stalled)
		if delay > 0 {
			time.Sleep(delay)
		}
		return err
	}
	return nil
}

// served accounts one read call that handed out the next n bytes.
func (r *Reader) served(n int) {
	r.off += n
	r.pendingBytes += int64(n)
	r.pendingCalls++
	if r.pendingBytes >= observeFlushBytes || r.off >= r.size {
		r.flushObservation()
	}
	if r.fs.throttle {
		now := time.Since(r.fs.epoch)
		if wait := r.fs.bucket.Take(now, int64(n)); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// flushObservation publishes accumulated read accounting.
func (r *Reader) flushObservation() {
	if r.pendingCalls == 0 {
		return
	}
	r.fs.observe(r.path, r.pendingBytes, r.pendingCalls)
	r.pendingBytes, r.pendingCalls = 0, 0
}

// Close releases the reader, flushing any unpublished read accounting even
// for readers abandoned mid-file, and closes a file on disk.
func (r *Reader) Close() error {
	err := r.closeFile()
	if r.ra != nil {
		readAheadPool.Put(r.ra)
		r.ra, r.ahead = nil, nil
	}
	return err
}

// closeFile is Close but for the read-ahead buffer, which Reopen keeps.
func (r *Reader) closeFile() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.flushObservation()
	if r.disk == nil {
		return nil
	}
	return r.disk.Close()
}

// Path returns the file path backing the reader.
func (r *Reader) Path() string { return r.path }

// Offset returns the reader's current byte offset into the file.
func (r *Reader) Offset() int64 { return int64(r.off) }

// Rewind repositions the reader to an earlier offset so a framed-record
// read that failed mid-record can be replayed exactly. Bytes served again
// after a rewind are observed again, like a real re-fetch.
func (r *Reader) Rewind(off int64) error {
	if r.closed {
		return fmt.Errorf("simfs: rewind %s: closed", r.path)
	}
	if off < 0 || off > int64(r.off) {
		return fmt.Errorf("simfs: rewind %s: offset %d out of range [0, %d]", r.path, off, r.off)
	}
	r.off = int(off)
	return nil
}
