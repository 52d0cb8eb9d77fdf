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

// TestConformanceReopen drives Reopen on every backend: one reader moved
// across every shard serves what fresh opens serve; the Reopen that leaves a
// file flushes its observation; Reopen(path, off) serves from off and
// neither observes nor pays for the prefix; and under a seeded fault plan
// the stream a reopened reader is injected equals the one injected into a
// reader closed and opened afresh.
func TestConformanceReopen(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			obs := &countingObserver{observed: map[string]int64{}}
			c.AddObserver(obs)
			defer c.RemoveObserver(obs)
			r, err := c.Open(specs[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// The same bytes as fresh opens, across every shard and back.
			for _, spec := range append(specs, specs[0]) {
				if err := r.Reopen(spec.Name, 0); err != nil {
					t.Fatalf("Reopen(%s, 0): %v", spec.Name, err)
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatalf("ReadAll(%s) after Reopen: %v", spec.Name, err)
				}
				fresh, err := c.Open(spec.Name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := io.ReadAll(fresh)
				fresh.Close()
				if err != nil || !bytes.Equal(got, want) || r.Path() != spec.Name {
					t.Fatalf("%s: reopened reader served %d bytes (path %q), a fresh one %d (%v)",
						spec.Name, len(got), r.Path(), len(want), err)
				}
			}

			// The Reopen that leaves a file flushes its observation.
			obs.take(specs[0].Name)
			obs.take(specs[1].Name)
			if err := r.Reopen(specs[0].Name, 0); err != nil {
				t.Fatal(err)
			}
			const part = 1000
			if _, err := io.ReadFull(r, make([]byte, part)); err != nil {
				t.Fatal(err)
			}
			if got := obs.take(specs[0].Name); got != 0 {
				t.Fatalf("%d bytes observed before the file was left: the partial read flushed early", got)
			}
			if err := r.Reopen(specs[1].Name, 0); err != nil {
				t.Fatal(err)
			}
			if got := obs.take(specs[0].Name); got != part {
				t.Fatalf("observed %d bytes of the file Reopen left, want %d", got, part)
			}

			// Reopen at an offset serves from it, and only what it serves
			// is observed.
			spec := specs[2]
			want := simfs.FileContent(spec, confSeed)
			off := spec.TotalBytes / 2
			obs.take(spec.Name)
			if err := r.Reopen(spec.Name, off); err != nil {
				t.Fatal(err)
			}
			if r.Offset() != off {
				t.Fatalf("Offset() after Reopen = %d, want %d", r.Offset(), off)
			}
			got, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(got, want[off:]) {
				t.Fatalf("Reopen at %d served %d bytes (%v), want the %d after it", off, len(got), err, len(want[off:]))
			}
			if got := obs.take(spec.Name); got != spec.TotalBytes-off {
				t.Fatalf("observed %d bytes after Reopen at %d, want %d", got, off, spec.TotalBytes-off)
			}

			// A failed Reopen leaves the reader closed; the next one works.
			if err := r.Reopen("/data/nonexistent", 0); err == nil {
				t.Fatal("Reopen(nonexistent) succeeded, want an error")
			}
			if _, err := r.Read(make([]byte, 8)); err == nil || err == io.EOF {
				t.Fatalf("Read after a failed Reopen: %v, want a closed-reader error", err)
			}
			if err := r.Reopen(spec.Name, spec.TotalBytes+1); err == nil {
				t.Fatal("Reopen past the end of the file succeeded, want an error")
			}
			if err := r.Reopen(spec.Name, spec.TotalBytes); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Read(make([]byte, 8)); err != io.EOF {
				t.Fatalf("Read after Reopen at the end: %v, want io.EOF", err)
			}
		})
	}

	// A seeded plan injects the same stream into a reopened reader as into
	// readers closed and opened afresh: the stall latch starts over per file.
	plan := &connector.FaultPlan{Seed: 11, Rules: []connector.FaultRule{
		{Name: "flaky", ErrorRate: 0.2, SpikeRate: 0.1, SpikeBase: 10 * time.Microsecond},
		{Name: "stall", StallAfterBytes: 4096, StallDuration: 20 * time.Microsecond},
	}}
	injected := func(reopen bool) map[string][]int64 {
		out := map[string][]int64{}
		for name, c := range backends(t, cat) {
			c.SetFaults(plan)
			var r connector.Reader
			for _, spec := range specs {
				var err error
				if reopen && r != nil {
					err = r.Reopen(spec.Name, 0)
				} else {
					if r != nil {
						r.Close()
					}
					r, err = c.Open(spec.Name)
				}
				if err != nil {
					t.Fatalf("%s: open %s: %v", name, spec.Name, err)
				}
				out[name] = append(out[name], faultOffsets(t, r)...)
			}
			r.Close()
			st := c.FaultStats()
			if st.Stalls != int64(len(specs)) {
				t.Errorf("%s (reopen %v): %d stalls over %d files, want one a file", name, reopen, st.Stalls, len(specs))
			}
			out[name] = append(out[name], st.Errors, st.Spikes, st.Stalls)
		}
		return out
	}
	fresh, reopened := injected(false), injected(true)
	for name, want := range fresh {
		if fmt.Sprint(reopened[name]) != fmt.Sprint(want) {
			t.Errorf("%s: reopened reader was injected %v, fresh readers %v", name, reopened[name], want)
		}
	}

	// The object store pays one request on the first read after Reopen, as
	// after Open, and paces only the bytes it serves: at 50 KB/s the
	// skipped prefix alone would hold the read for ~200 ms.
	obj := connector.NewMemObjectStore(cat, confSeed, connector.ObjectStoreConfig{
		Name: "reopen-object", RequestLatency: 5 * time.Millisecond, ParallelRanges: 1,
		PerStreamBandwidth: 50e3, Seed: confSeed,
	})
	r, err := obj.Open(specs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	tail := specs[1].TotalBytes - 64
	if err := r.Reopen(specs[1].Name, tail); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.ReadFull(r, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 5*time.Millisecond || took > 100*time.Millisecond {
		t.Errorf("the first read after Reopen at %d took %v, want one 5ms request and no pacing for the prefix", tail, took)
	}
}

// faultOffsets drains r in 256-byte reads, reissuing a read that faulted,
// and returns the offsets the faults came at.
func faultOffsets(t *testing.T, r connector.Reader) []int64 {
	t.Helper()
	var out []int64
	buf := make([]byte, 256)
	for {
		_, err := r.Read(buf)
		var fe *connector.FaultError
		if errors.As(err, &fe) {
			out = append(out, r.Offset())
			continue
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read %s at %d: %v", r.Path(), r.Offset(), err)
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
// and the simfs reader it wraps, nothing more, and a Reopen nothing at all.
// The latency draws' RNG lives inside the object reader.
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
	r, err := obj.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	paths := [2]string{path, cat.FileName(1)}
	i := 0
	allocs = testing.AllocsPerRun(100, func() {
		i++
		if err := r.Reopen(paths[i%2], 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reopen allocates %.1f objects, want 0", allocs)
	}
}
