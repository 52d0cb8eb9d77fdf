package connector_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/simfs"
)

const confSeed = 42

func confCatalog(t *testing.T) data.Catalog {
	t.Helper()
	cat := data.Catalog{
		Name:                  "connector-conformance",
		NumFiles:              3,
		RecordsPerFile:        40,
		MeanRecordBytes:       512,
		RecordBytesStddevFrac: 0.25,
		DecodeAmplification:   1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatalf("register catalog: %v", err)
	}
	return cat
}

// backends builds one instance of every Connector implementation over the
// same catalog and seed, so the conformance table below runs identically
// against all of them. The object store is configured with zero latency so
// the suite exercises semantics, not the timing model.
func backends(t *testing.T, cat data.Catalog) map[string]connector.Connector {
	t.Helper()
	fs := connector.NewMem("conformance-mem")
	fs.AddCatalog(cat, confSeed)

	lfs := connector.NewLocalFS(t.TempDir())
	if err := lfs.MaterializeCatalog(cat, confSeed); err != nil {
		t.Fatalf("materialize catalog: %v", err)
	}

	obj := connector.NewMemObjectStore(cat, confSeed, connector.ObjectStoreConfig{
		Name: "conformance-object",
		Seed: confSeed,
	})

	return map[string]connector.Connector{
		"simfs":       fs,
		"localfs":     lfs,
		"objectstore": obj,
	}
}

// TestConformanceStatListRead drives the core contract on every backend:
// List returns the catalog's shards, Stat matches the generated framed
// size, and Read serves bytes identical to the canonical generated content.
func TestConformanceStatListRead(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			if got := c.Backend(); got != name {
				t.Fatalf("Backend() = %q, want %q", got, name)
			}
			paths := c.List()
			if len(paths) != cat.NumFiles {
				t.Fatalf("List() returned %d paths, want %d", len(paths), cat.NumFiles)
			}
			for i, spec := range specs {
				if paths[i] != spec.Name {
					t.Fatalf("List()[%d] = %q, want %q", i, paths[i], spec.Name)
				}
				size, err := c.Stat(spec.Name)
				if err != nil {
					t.Fatalf("Stat(%s): %v", spec.Name, err)
				}
				if size != spec.TotalBytes {
					t.Fatalf("Stat(%s) = %d, want %d", spec.Name, size, spec.TotalBytes)
				}
				r, err := c.Open(spec.Name)
				if err != nil {
					t.Fatalf("Open(%s): %v", spec.Name, err)
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatalf("ReadAll(%s): %v", spec.Name, err)
				}
				if err := r.Close(); err != nil {
					t.Fatalf("Close(%s): %v", spec.Name, err)
				}
				want := simfs.FileContent(spec, confSeed)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: read %d bytes differing from generated content (%d bytes)", spec.Name, len(got), len(want))
				}
			}
			if _, err := c.Stat("/data/nonexistent"); err == nil {
				t.Fatalf("Stat(nonexistent) succeeded, want error")
			}
			if _, err := c.Open("/data/nonexistent"); err == nil {
				t.Fatalf("Open(nonexistent) succeeded, want error")
			}
		})
	}
}

// TestConformanceRewindReplay proves the retry-replay contract: a scripted
// transient fault fails the first read call on a path; rewinding to the
// recorded offset and re-reading serves the exact bytes the failed attempt
// would have, on every backend.
func TestConformanceRewindReplay(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	want := simfs.FileContent(specs[0], confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			c.SetFaults(&connector.FaultPlan{Seed: 5, Rules: []connector.FaultRule{
				{Name: "fail-first", FailFirstReads: 1, PathPrefix: specs[0].Name},
			}})
			defer c.SetFaults(nil)

			r, err := c.Open(specs[0].Name)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()

			// Read a prefix cleanly... the injector fails the path's first
			// read call, so absorb that first.
			buf := make([]byte, 128)
			start := r.Offset()
			_, err = r.Read(buf)
			var fe *connector.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("first read error = %v, want a FaultError", err)
			}
			if !fe.Transient() {
				t.Fatalf("scripted fault reported permanent, want transient")
			}
			if err := r.Rewind(start); err != nil {
				t.Fatalf("Rewind(%d): %v", start, err)
			}
			n, err := io.ReadFull(r, buf)
			if err != nil {
				t.Fatalf("replay read: %v (n=%d)", err, n)
			}
			if !bytes.Equal(buf, want[:128]) {
				t.Fatalf("replayed bytes differ from canonical content")
			}

			// Mid-file rewind replays an interior range identically.
			if _, err := io.ReadFull(r, make([]byte, 256)); err != nil {
				t.Fatalf("advance: %v", err)
			}
			if err := r.Rewind(128); err != nil {
				t.Fatalf("Rewind(128): %v", err)
			}
			if got := r.Offset(); got != 128 {
				t.Fatalf("Offset() after rewind = %d, want 128", got)
			}
			chunk := make([]byte, 256)
			if _, err := io.ReadFull(r, chunk); err != nil {
				t.Fatalf("interior replay: %v", err)
			}
			if !bytes.Equal(chunk, want[128:384]) {
				t.Fatalf("interior replay bytes differ from canonical content")
			}

			// Rewinding past the high-water offset is a contract violation.
			if err := r.Rewind(r.Offset() + 1); err == nil {
				t.Fatalf("Rewind past offset succeeded, want error")
			}
		})
	}
}

// TestConformanceObservationFlush proves every served byte reaches the
// registered observer — including the tail of a reader abandoned before
// EOF, which must flush on Close.
func TestConformanceObservationFlush(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			// A pointer observer type: RemoveObserver matches by identity,
			// which the ObserverFunc adapter (uncomparable) cannot support.
			obs := &countingObserver{observed: map[string]int64{}}
			observed := obs.observed
			mu := &obs.mu
			c.AddObserver(obs)
			defer c.RemoveObserver(obs)

			// Full drain: observation must equal the framed size.
			r, err := c.Open(specs[0].Name)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := io.Copy(io.Discard, r); err != nil {
				t.Fatalf("drain: %v", err)
			}
			r.Close()
			mu.Lock()
			got := observed[specs[0].Name]
			mu.Unlock()
			if got != specs[0].TotalBytes {
				t.Fatalf("observed %d bytes after full drain, want %d", got, specs[0].TotalBytes)
			}

			// Abandoned mid-file: the partial count must flush on Close.
			r2, err := c.Open(specs[1].Name)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			const part = 1000
			if _, err := io.ReadFull(r2, make([]byte, part)); err != nil {
				t.Fatalf("partial read: %v", err)
			}
			mu.Lock()
			before := observed[specs[1].Name]
			mu.Unlock()
			r2.Close()
			mu.Lock()
			after := observed[specs[1].Name]
			mu.Unlock()
			if after != part {
				t.Fatalf("observed %d bytes after abandoned Close (pre-Close %d), want %d", after, before, part)
			}

			// RemoveObserver detaches: later reads add nothing.
			c.RemoveObserver(obs)
			r3, err := c.Open(specs[2].Name)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			io.Copy(io.Discard, r3)
			r3.Close()
			mu.Lock()
			stray := observed[specs[2].Name]
			mu.Unlock()
			if stray != 0 {
				t.Fatalf("detached observer still saw %d bytes", stray)
			}
		})
	}
}

// countingObserver tallies observed bytes per path; a pointer type so
// RemoveObserver can match it by identity.
type countingObserver struct {
	mu       sync.Mutex
	observed map[string]int64
}

func (o *countingObserver) ObserveRead(path string, n int64) {
	o.mu.Lock()
	o.observed[path] += n
	o.mu.Unlock()
}

// TestConformanceConcurrentReaders hammers every backend with concurrent
// full drains (run under -race in CI): all readers must see the canonical
// bytes with no shared-state corruption.
func TestConformanceConcurrentReaders(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	want := make(map[string][]byte, len(specs))
	for _, s := range specs {
		want[s.Name] = simfs.FileContent(s, confSeed)
	}
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 4*len(specs))
			for i := 0; i < 4; i++ {
				for _, s := range specs {
					wg.Add(1)
					go func(path string) {
						defer wg.Done()
						r, err := c.Open(path)
						if err != nil {
							errs <- fmt.Errorf("Open(%s): %w", path, err)
							return
						}
						defer r.Close()
						got, err := io.ReadAll(r)
						if err != nil {
							errs <- fmt.Errorf("ReadAll(%s): %w", path, err)
							return
						}
						if !bytes.Equal(got, want[path]) {
							errs <- fmt.Errorf("%s: concurrent read diverged from canonical content", path)
						}
					}(s.Name)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestConformanceFaultStats checks the injection accounting surface: an
// error-rate plan reports the faults it delivered, and clearing the plan
// stops injection.
func TestConformanceFaultStats(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			c.SetFaults(&connector.FaultPlan{Seed: 9, Rules: []connector.FaultRule{
				{Name: "always-fail", ErrorRate: 1},
			}})
			r, err := c.Open(specs[0].Name)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := r.Read(make([]byte, 64)); err == nil {
				t.Fatalf("read under ErrorRate=1 succeeded, want fault")
			}
			r.Close()
			if st := c.FaultStats(); st.Errors == 0 {
				t.Fatalf("FaultStats().Errors = 0 after injected failure")
			}

			c.SetFaults(nil)
			r2, err := c.Open(specs[0].Name)
			if err != nil {
				t.Fatalf("Open after clear: %v", err)
			}
			if _, err := io.Copy(io.Discard, r2); err != nil {
				t.Fatalf("read after clearing plan: %v", err)
			}
			r2.Close()
		})
	}
}

// TestConformanceFaultStream: one seeded plan injects one fault stream on
// every backend. Each drains every shard to io.EOF in 256-byte reads,
// reissuing a read that faulted, and all must end with the same FaultStats:
// the plan is asked once per read call, after the end-of-file check, however
// the backend holds its bytes.
func TestConformanceFaultStream(t *testing.T) {
	cat := confCatalog(t)
	got := map[string]connector.FaultStats{}
	for name, c := range backends(t, cat) {
		c.SetFaults(&connector.FaultPlan{Seed: 5, Rules: []connector.FaultRule{{ErrorRate: 0.2}}})
		for _, path := range c.List() {
			r, err := c.Open(path)
			if err != nil {
				t.Fatalf("%s: Open(%s): %v", name, path, err)
			}
			buf := make([]byte, 256)
			for {
				_, err := r.Read(buf)
				var fe *connector.FaultError
				if errors.As(err, &fe) {
					continue
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: read %s at %d: %v", name, path, r.Offset(), err)
				}
			}
			r.Close()
		}
		got[name] = c.FaultStats()
	}
	if got["simfs"].Errors == 0 {
		t.Fatalf("simfs: the plan injected no faults")
	}
	for _, name := range []string{"localfs", "objectstore"} {
		if got[name] != got["simfs"] {
			t.Errorf("%s injected %+v, simfs %+v", name, got[name], got["simfs"])
		}
	}
}

// TestObjectStoreTimingModel sanity-checks the modeled costs: per-request
// latency makes cold sequential reads slower than a zero-latency store, and
// a Rewind inside the paid range does not pay a new request.
func TestObjectStoreTimingModel(t *testing.T) {
	cat := confCatalog(t)
	cfg := connector.ObjectStoreConfig{
		Name:           "timing-object",
		RequestLatency: 2 * time.Millisecond,
		ParallelRanges: 1,
		RangeBytes:     1 << 20,
		Seed:           confSeed,
	}
	obj := connector.NewMemObjectStore(cat, confSeed, cfg)
	path := cat.FileName(0)

	r, err := obj.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	start := time.Now()
	if _, err := io.ReadFull(r, make([]byte, 512)); err != nil {
		t.Fatalf("first read: %v", err)
	}
	first := time.Since(start)
	if first < 2*time.Millisecond {
		t.Fatalf("first ranged read took %v, want >= the 2ms request latency", first)
	}

	// The shard fits inside one paid range: replaying and continuing within
	// it must not pay another request latency.
	if err := r.Rewind(0); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	start = time.Now()
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rest := time.Since(start); rest >= 2*time.Millisecond {
		t.Fatalf("reads inside the paid range took %v, want < the 2ms request latency", rest)
	}
}

// TestObjectStoreOpenAllocatesItsReaders: an open costs the object reader
// and the simfs reader it wraps, nothing more. The latency draws' RNG lives
// inside the object reader.
func TestObjectStoreOpenAllocatesItsReaders(t *testing.T) {
	cat := confCatalog(t)
	obj := connector.NewMemObjectStore(cat, confSeed, connector.ObjectStoreConfig{Name: "alloc-object", Seed: confSeed})
	path := cat.FileName(0)
	allocs := testing.AllocsPerRun(100, func() {
		r, err := obj.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	})
	if allocs > 2 {
		t.Errorf("Open+Close allocates %.1f objects, want <= 2", allocs)
	}
}
