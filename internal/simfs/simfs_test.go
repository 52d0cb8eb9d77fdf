package simfs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"plumber/internal/data"
)

func TestTokenBucketDelaysDeficit(t *testing.T) {
	tb := NewTokenBucket(100, 100) // 100 bytes/s, 100-byte burst
	// The burst is free...
	if wait := tb.Take(0, 100); wait != 0 {
		t.Fatalf("burst take delayed %v, want 0", wait)
	}
	// ...the next 50 bytes must be repaid at the rate: 0.5s.
	if wait := tb.Take(0, 50); wait != 500*time.Millisecond {
		t.Fatalf("deficit take delayed %v, want 500ms", wait)
	}
	// After a second of virtual time the bucket refills (capped at burst).
	if wait := tb.Take(2*time.Second, 100); wait != 0 {
		t.Fatalf("refilled take delayed %v, want 0", wait)
	}
	// Unlimited or nil buckets never delay.
	if wait := NewTokenBucket(0, 0).Take(0, 1<<30); wait != 0 {
		t.Fatalf("unlimited bucket delayed %v", wait)
	}
	var nilBucket *TokenBucket
	if wait := nilBucket.Take(0, 1<<30); wait != 0 {
		t.Fatalf("nil bucket delayed %v", wait)
	}
}

func testCatalogFS(t *testing.T) (*FS, data.Catalog) {
	t.Helper()
	cat := data.Catalog{
		Name:                  "simfs-test",
		NumFiles:              2,
		RecordsPerFile:        16,
		MeanRecordBytes:       256,
		RecordBytesStddevFrac: 0.2,
		DecodeAmplification:   1,
	}
	fs := New(Device{Name: "mem"}, false)
	fs.AddCatalog(cat, 5)
	return fs, cat
}

// countingObserver is a pointer-typed observer, so RemoveObserver can match
// it by identity.
type countingObserver struct {
	mu    sync.Mutex
	bytes int64
}

func (o *countingObserver) ObserveRead(path string, n int64) {
	o.mu.Lock()
	o.bytes += n
	o.mu.Unlock()
}

func (o *countingObserver) total() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bytes
}

func drainFile(t *testing.T, fs *FS, path string) int64 {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestReadAccountingAndObservers(t *testing.T) {
	fs, _ := testCatalogFS(t)
	paths := fs.List()
	if len(paths) != 2 {
		t.Fatalf("List returned %d paths, want 2", len(paths))
	}

	obs := &countingObserver{}
	fs.AddObserver(obs)
	n := drainFile(t, fs, paths[0])
	size, err := fs.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Fatalf("drained %d bytes, Stat says %d", n, size)
	}
	if got := obs.total(); got != n {
		t.Fatalf("observer saw %d bytes, want exactly %d (batched observation must flush at EOF)", got, n)
	}
	if got := fs.TotalBytesRead(); got != n {
		t.Fatalf("TotalBytesRead = %d, want %d", got, n)
	}
	if fs.ReadCalls() == 0 {
		t.Fatal("ReadCalls not accounted")
	}

	// A removed observer stops receiving reads; filesystem totals continue.
	fs.RemoveObserver(obs)
	n2 := drainFile(t, fs, paths[1])
	if got := obs.total(); got != n {
		t.Fatalf("removed observer still received %d bytes", got-n)
	}
	if got := fs.TotalBytesRead(); got != n+n2 {
		t.Fatalf("TotalBytesRead = %d after second drain, want %d", got, n+n2)
	}
}

func TestContentIsDeterministic(t *testing.T) {
	fsA, _ := testCatalogFS(t)
	fsB, _ := testCatalogFS(t)
	path := fsA.List()[0]
	ra, err := fsA.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fsB.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := io.ReadAll(ra)
	bb, _ := io.ReadAll(rb)
	if string(ba) != string(bb) {
		t.Fatal("same spec and seed produced different shard content")
	}
}

// TestDiskFileReadsThroughTheSameReader registers a shard's bytes on disk:
// the reader serves them like the in-memory copy, with the same offsets,
// rewinds and observation, but View fails and serves nothing, because
// nothing is in memory to view.
func TestDiskFileReadsThroughTheSameReader(t *testing.T) {
	_, cat := testCatalogFS(t)
	spec := cat.GenerateFileSpecs(5)[0]
	path, want := spec.Name, FileContent(spec, 5)
	real := filepath.Join(t.TempDir(), "shard")
	if err := os.WriteFile(real, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := New(Device{Name: "disk"}, false)
	fs.AddDiskFile(path, real, int64(len(want)))
	if size, err := fs.Stat(path); err != nil || size != int64(len(want)) {
		t.Fatalf("Stat = %d, %v; want %d", size, err, len(want))
	}
	obs := &countingObserver{}
	fs.AddObserver(obs)

	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 100)
	if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, want[:100]) {
		t.Fatalf("first 100 bytes: %v", err)
	}
	if v, err := r.View(16); err == nil || v != nil {
		t.Fatalf("View on a file on disk = %d bytes, %v; want an error", len(v), err)
	}
	if r.Offset() != 100 {
		t.Fatalf("offset after the failed View = %d, want 100", r.Offset())
	}
	if err := r.Rewind(10); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(rest, want[10:]) {
		t.Fatalf("read after Rewind(10): %v, %d bytes, want %d", err, len(rest), len(want)-10)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, wantObs := obs.total(), int64(100+len(want)-10); got != wantObs {
		t.Fatalf("observer saw %d bytes, want %d (replayed bytes count again)", got, wantObs)
	}
}
