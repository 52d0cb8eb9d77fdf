package connector_test

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/simfs"
)

// Conformance for the Viewer extension: a View call must be a Read call in
// everything but the copy. Every test drives one reader with Read and one
// with View through the same sequence of call sizes — a record reader's
// header, payload, footer — and compares what the backend did.

// viewBackend is one Viewer-capable backend with the simfs that holds its
// bytes and counters (the object store keeps its own private otherwise).
type viewBackend struct {
	conn connector.Connector
	fs   *simfs.FS
}

// viewBackends builds the two backends that implement Viewer over the
// conformance catalog. dev and throttle configure the simfs under both;
// cfg is the object store's latency model.
func viewBackends(cat data.Catalog, dev simfs.Device, throttle bool, cfg connector.ObjectStoreConfig) map[string]viewBackend {
	mem := simfs.New(dev, throttle)
	mem.AddCatalog(cat, confSeed)
	under := simfs.New(dev, throttle)
	under.AddCatalog(cat, confSeed)
	return map[string]viewBackend{
		"simfs":       {connector.FromSimFS(mem), mem},
		"objectstore": {connector.NewObjectStore(under, cfg), under},
	}
}

func plainViewBackends(cat data.Catalog) map[string]viewBackend {
	return viewBackends(cat, simfs.Device{Name: "view-mem"}, false, connector.ObjectStoreConfig{Name: "view-object", Seed: confSeed})
}

// callSizes is the sequence of read sizes a record reader issues over spec.
func callSizes(spec data.FileSpec) []int {
	var sizes []int
	for _, sz := range spec.RecordSizes {
		sizes = append(sizes, data.RecordHeaderBytes, int(sz), data.RecordFooterBytes)
	}
	return sizes
}

// serve issues one call of n bytes on r, by View or by Read.
func serve(r connector.Reader, n int, view bool) ([]byte, error) {
	if view {
		return r.(connector.Viewer).View(n)
	}
	p := make([]byte, n)
	got, err := io.ReadFull(r, p)
	return p[:got], err
}

// drive opens path and issues the call sequence, reissuing a call that
// faults (as the engine's retry does, after a Rewind to the same offset).
// It returns the bytes served in order.
func drive(t *testing.T, c connector.Connector, path string, sizes []int, view bool) []byte {
	t.Helper()
	r, err := c.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer r.Close()
	var out []byte
	for _, n := range sizes {
		for {
			off := r.Offset()
			b, err := serve(r, n, view)
			var fe *connector.FaultError
			if errors.As(err, &fe) {
				if r.Offset() != off {
					t.Fatalf("%s: faulted call moved the offset %d -> %d", path, off, r.Offset())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: call of %d bytes at %d: %v", path, n, off, err)
			}
			out = append(out, b...)
			break
		}
	}
	return out
}

func TestViewerOnlyWhereBytesAreInMemory(t *testing.T) {
	cat := confCatalog(t)
	for name, c := range backends(t, cat) {
		r, err := c.Open(cat.FileName(0))
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		_, ok := r.(connector.Viewer)
		r.Close()
		if want := name != "localfs"; ok != want {
			t.Errorf("%s: reader implements Viewer = %v, want %v", name, ok, want)
		}
	}
}

// TestViewerConformanceBytesAndAccounting: concatenated views == Read bytes
// == canonical content == Stat size, and a View-driven pass leaves the same
// observed bytes and the same read-call count as a Read-driven one.
func TestViewerConformanceBytesAndAccounting(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, b := range plainViewBackends(cat) {
		t.Run(name, func(t *testing.T) {
			obs := &countingObserver{observed: map[string]int64{}}
			b.conn.AddObserver(obs)
			defer b.conn.RemoveObserver(obs)
			for _, spec := range specs {
				want := simfs.FileContent(spec, confSeed)
				sizes := callSizes(spec)

				calls0 := b.fs.ReadCalls()
				read := drive(t, b.conn, spec.Name, sizes, false)
				readCalls, readObserved := b.fs.ReadCalls()-calls0, obs.take(spec.Name)

				calls0 = b.fs.ReadCalls()
				viewed := drive(t, b.conn, spec.Name, sizes, true)
				viewCalls, viewObserved := b.fs.ReadCalls()-calls0, obs.take(spec.Name)

				if !bytes.Equal(viewed, want) || !bytes.Equal(read, want) {
					t.Fatalf("%s: views (%d bytes) / reads (%d bytes) differ from canonical content (%d bytes)",
						spec.Name, len(viewed), len(read), len(want))
				}
				if size, err := b.conn.Stat(spec.Name); err != nil || size != int64(len(viewed)) {
					t.Fatalf("%s: Stat = %d, %v; views served %d bytes", spec.Name, size, err, len(viewed))
				}
				if viewObserved != readObserved || viewObserved != spec.TotalBytes {
					t.Fatalf("%s: observers saw %d bytes by View, %d by Read, want %d", spec.Name, viewObserved, readObserved, spec.TotalBytes)
				}
				if viewCalls != readCalls || viewCalls != int64(len(sizes)) {
					t.Fatalf("%s: %d read calls by View, %d by Read, want %d", spec.Name, viewCalls, readCalls, len(sizes))
				}
			}
		})
	}
}

// take returns and clears the bytes observed on path.
func (o *countingObserver) take(path string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.observed[path]
	delete(o.observed, path)
	return n
}

// TestViewerFaultRewindSkipEOF covers the positional contract: a faulted
// View serves nothing and consumes no offset, Rewind replays the same range
// (the same storage, even), SkipTo then View serves from the new offset
// without observing the skipped prefix, and the end of the file reads as a
// short view with io.ErrUnexpectedEOF, then io.EOF.
func TestViewerFaultRewindSkipEOF(t *testing.T) {
	cat := confCatalog(t)
	spec := cat.GenerateFileSpecs(confSeed)[0]
	want := simfs.FileContent(spec, confSeed)
	for name, b := range plainViewBackends(cat) {
		t.Run(name, func(t *testing.T) {
			obs := &countingObserver{observed: map[string]int64{}}
			b.conn.AddObserver(obs)
			defer b.conn.RemoveObserver(obs)
			b.conn.SetFaults(&connector.FaultPlan{Seed: 5, Rules: []connector.FaultRule{
				{Name: "fail-first", FailFirstReads: 1, PathPrefix: spec.Name},
			}})
			defer b.conn.SetFaults(nil)
			r, err := b.conn.Open(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			v := r.(connector.Viewer)

			got, err := v.View(128)
			var fe *connector.FaultError
			if !errors.As(err, &fe) || !fe.Transient() {
				t.Fatalf("first View error = %v, want a transient FaultError", err)
			}
			if len(got) != 0 || r.Offset() != 0 {
				t.Fatalf("faulted View served %d bytes and left the offset at %d", len(got), r.Offset())
			}
			first, err := v.View(128)
			if err != nil || !bytes.Equal(first, want[:128]) {
				t.Fatalf("View after the fault: %v, %d bytes", err, len(first))
			}
			if cap(first) != len(first) {
				t.Fatalf("view cap %d exceeds its len %d: an append would write into storage", cap(first), len(first))
			}
			if _, err := v.View(256); err != nil {
				t.Fatal(err)
			}
			if err := r.Rewind(128); err != nil {
				t.Fatal(err)
			}
			again, err := v.View(256)
			if err != nil || !bytes.Equal(again, want[128:384]) {
				t.Fatalf("replayed View: %v, %d bytes", err, len(again))
			}
			if err := r.Rewind(0); err != nil {
				t.Fatal(err)
			}
			if replay, err := v.View(128); err != nil || &replay[0] != &first[0] {
				t.Fatalf("View after Rewind(0) is not the same storage (err %v)", err)
			}

			// 128+256+256+128 bytes served so far, replays included.
			tail := int64(len(want)) - 5
			if err := r.SkipTo(tail); err != nil {
				t.Fatal(err)
			}
			short, err := v.View(10)
			if err != io.ErrUnexpectedEOF || !bytes.Equal(short, want[tail:]) {
				t.Fatalf("View(10) with 5 bytes left = %d bytes, %v; want the 5 and io.ErrUnexpectedEOF", len(short), err)
			}
			if r.Offset() != int64(len(want)) {
				t.Fatalf("offset after the short view = %d, want %d", r.Offset(), len(want))
			}
			if _, err := v.View(1); err != io.EOF {
				t.Fatalf("View at end of file: %v, want io.EOF", err)
			}
			r.Close()
			if _, err := v.View(1); err == nil || err == io.EOF {
				t.Fatalf("View on a closed reader: %v, want an error", err)
			}
			if got, want := obs.take(spec.Name), int64(128+256+256+128+5); got != want {
				t.Fatalf("observers saw %d bytes, want %d (the skipped prefix is not served)", got, want)
			}
		})
	}
}

// TestViewerFaultStreamMatchesRead: under one seeded plan — rate-based
// errors and spikes, whose draws are consumed call by call — a reader driven
// by View ends with the same FaultStats as one driven by Read. View makes
// exactly the calls Read makes, so the plan cannot tell them apart.
func TestViewerFaultStreamMatchesRead(t *testing.T) {
	cat := confCatalog(t)
	spec := cat.GenerateFileSpecs(confSeed)[1]
	plan := &connector.FaultPlan{Seed: 77, Rules: []connector.FaultRule{
		{Name: "flaky", ErrorRate: 0.15, SpikeRate: 0.1, SpikeBase: 20 * time.Microsecond, SpikeTailSigma: 0.5},
		{Name: "stall", StallAfterBytes: 4096, StallDuration: 50 * time.Microsecond},
	}}
	stats := func(view bool) map[string]connector.FaultStats {
		out := map[string]connector.FaultStats{}
		for name, b := range plainViewBackends(cat) {
			b.conn.SetFaults(plan)
			got := drive(t, b.conn, spec.Name, callSizes(spec), view)
			if int64(len(got)) != spec.TotalBytes {
				t.Fatalf("%s: served %d bytes, want %d", name, len(got), spec.TotalBytes)
			}
			out[name] = b.conn.FaultStats()
		}
		return out
	}
	byRead, byView := stats(false), stats(true)
	for name, want := range byRead {
		if want.Errors == 0 || want.Spikes == 0 || want.Stalls != 1 {
			t.Fatalf("%s: plan injected %+v by Read; want errors, spikes and one stall", name, want)
		}
		if got := byView[name]; got != want {
			t.Errorf("%s: FaultStats by View %+v, by Read %+v", name, got, want)
		}
	}
}

// TestViewerThrottledLikeRead: views are paced by the same token bucket
// (simfs) and per-stream bandwidth cap (object store) as reads. The pacing
// is sleeps, so the modeled time is a hard floor on both; the ceiling is
// scheduling noise, taken best of three.
func TestViewerThrottledLikeRead(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	var total int64
	for _, s := range specs {
		total += s.TotalBytes
	}
	const deviceBW = 200e3  // bytes/s; the bucket starts with a quarter second of it
	const streamBW = 1000e3 // bytes/s per object-store stream
	modeled := map[string]time.Duration{
		"simfs":       time.Duration((float64(total)/deviceBW - 0.25) * float64(time.Second)),
		"objectstore": time.Duration(float64(total) / streamBW * float64(time.Second)),
	}
	pass := func(name string, view bool) time.Duration {
		dev, throttle, cfg := simfs.Device{Name: "view-mem"}, false, connector.ObjectStoreConfig{Name: "view-object", Seed: confSeed}
		if name == "simfs" {
			dev, throttle = simfs.Device{Name: "view-slow", TotalBandwidth: deviceBW}, true
		} else {
			cfg.PerStreamBandwidth = streamBW
		}
		b := viewBackends(cat, dev, throttle, cfg)[name]
		start := time.Now()
		for _, spec := range specs {
			drive(t, b.conn, spec.Name, callSizes(spec), view)
		}
		return time.Since(start)
	}
	for name, floor := range modeled {
		if floor < 20*time.Millisecond {
			t.Fatalf("%s: modeled time %v is too short to tell pacing from none", name, floor)
		}
		for _, view := range []bool{false, true} {
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				took := pass(name, view)
				if took < floor*9/10 {
					t.Fatalf("%s view=%v: pass took %v, below the modeled %v: not throttled", name, view, took, floor)
				}
				if took < best {
					best = took
				}
				if best < 2*floor {
					break
				}
			}
			if best >= 2*floor {
				t.Errorf("%s view=%v: best pass took %v, want under twice the modeled %v", name, view, best, floor)
			}
		}
	}
}

// TestFaultPlanSwapUnderReaders is the -race workout for the lock-free
// fault check: readers on every backend (by View where they can) consult the
// installed plan on every call while another goroutine installs, clears and
// audits plans. Every pass must still serve the canonical bytes.
func TestFaultPlanSwapUnderReaders(t *testing.T) {
	cat := confCatalog(t)
	specs := cat.GenerateFileSpecs(confSeed)
	for name, c := range backends(t, cat) {
		t.Run(name, func(t *testing.T) {
			stop := make(chan struct{})
			swapped := make(chan struct{})
			go func() {
				defer close(swapped)
				plan := &connector.FaultPlan{Seed: 3, Rules: []connector.FaultRule{{Name: "flaky", ErrorRate: 0.05}}}
				for {
					select {
					case <-stop:
						c.SetFaults(nil)
						return
					default:
						c.SetFaults(plan)
						c.FaultStats()
						c.SetFaults(nil)
					}
				}
			}()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(view bool) {
					defer wg.Done()
					for _, spec := range specs {
						got := drive(t, c, spec.Name, callSizes(spec), view)
						if !bytes.Equal(got, simfs.FileContent(spec, confSeed)) {
							t.Errorf("%s: pass under plan swaps diverged from canonical content", spec.Name)
						}
					}
				}(name != "localfs" && i%2 == 0)
			}
			wg.Wait()
			close(stop)
			<-swapped
		})
	}
}
