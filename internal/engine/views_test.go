package engine

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/simfs"
	"plumber/internal/udf"
)

// View safety: a source may hand out read-only views of the connector's own
// storage only where nothing can write a record before Batch copies it. The
// tests below pin the static choice, then try to damage the dataset through
// every chain that must have been given copies, and check that the view
// path keeps the copying path's guarantees (checksums, retry replay).

// viewRegistry adds two caller-code UDFs to the test registry: "scribble"
// flips the first byte of its input in place and passes it on; "keep-all"
// is a filter predicate that only looks.
func viewRegistry(t *testing.T) (*connector.SimFS, *udf.Registry) {
	t.Helper()
	fs, reg := testSetup(t)
	for _, u := range []udf.UDF{
		{Name: "scribble", Cost: udf.Cost{SizeFactor: 1}, Body: func(in data.Element) (data.Element, bool, error) {
			in.Payload[0] ^= 0xff
			return in, true, nil
		}},
		{Name: "keep-all", Cost: udf.Cost{SizeFactor: 1}, Body: func(in data.Element) (data.Element, bool, error) {
			return in, true, nil
		}},
	} {
		if err := reg.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	return fs, reg
}

// TestStorageViewSelection pins viewPlan: whether the source "src" serves
// storage views (want), and whether the cache "c", where there is one,
// serves copies of what it keeps (copies).
func TestStorageViewSelection(t *testing.T) {
	src := func() *pipeline.Builder { return pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 2) }
	for _, tc := range []struct {
		name   string
		graph  *pipeline.Builder
		opts   Options
		want   bool
		copies bool
	}{
		{name: "canonical", graph: src().Map("noop", 2).Batch(8).Prefetch(4), want: true},
		{name: "every pass-through before the batch", want: true,
			graph: src().Map("noop", 1).Filter("noop").Shuffle(16).Prefetch(4).Take(100).Repeat(2).Batch(8)},
		{name: "body after the batch", graph: src().Batch(8).Map("scribble", 1), want: true},
		{name: "map body before the batch", graph: src().Map("noop", 1).Map("scribble", 1).Batch(8)},
		{name: "filter body before the batch", graph: src().Filter("keep-all").Batch(8)},
		{name: "no batch", graph: src().Map("noop", 2).Prefetch(4)},
		{name: "bare source", graph: src()},
		{name: "zip below the batch", graph: pipeline.ZipOf(src().MustBuild(),
			pipeline.NewBuilder().Named("other").Interleave(testCatalog.Name, 1).MustBuild()).Batch(8)},
		{name: "cache in the chain", graph: src().Map("noop", 1).Named("c").Cache().Batch(8), want: true},
		{name: "cache above the batch", graph: src().Map("noop", 2).Batch(8).Named("c").Cache().Prefetch(4).Repeat(2), want: true},
		{name: "cache with no batch", graph: src().Named("c").Cache().Repeat(2)},
		{name: "body above the batch above a cache", graph: src().Named("c").Cache().Batch(8).Map("scribble", 1), want: true},
		{name: "map body above a cache", graph: src().Named("c").Cache().Repeat(2).Map("scribble", 2).Batch(8), copies: true},
		{name: "filter body above a cache", graph: src().Named("c").Cache().Filter("keep-all").Batch(8), copies: true},
		{name: "channel handoff", graph: src().Map("noop", 2).Batch(8), opts: Options{Handoff: HandoffChannel}},
		{name: "no buffer pool", graph: src().Map("noop", 2).Batch(8), opts: Options{DisableBufferPool: true}},
	} {
		fs, reg := viewRegistry(t)
		tc.opts.FS, tc.opts.UDFs = fs, reg
		p, err := New(tc.graph.MustBuild(), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.storageViews["src"]; got != tc.want {
			t.Errorf("%s: source serves storage views = %v, want %v", tc.name, got, tc.want)
		}
		if got := p.servedCopies["c"]; got != tc.copies {
			t.Errorf("%s: cache serves copies = %v, want %v", tc.name, got, tc.copies)
		}
		p.Close()
	}
}

// storageIntact reads every shard back through the connector and compares
// it with the content the catalog generates: the dataset the filesystem
// holds is byte-identical to the one it was given.
func storageIntact(t *testing.T, label string, fs *connector.SimFS) {
	t.Helper()
	for _, spec := range testCatalog.GenerateFileSpecs(7) {
		r, err := fs.Open(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, simfs.FileContent(spec, 7)) {
			t.Fatalf("%s: shard %s held by the connector was written through a view", label, spec.Name)
		}
	}
}

// drainRecords drains p to EOF and returns the multiset of element payloads,
// handing each element to consume (before it is recycled) when non-nil.
func drainRecords(t *testing.T, label string, p *Pipeline, consume func(data.Element)) map[string]int {
	t.Helper()
	got := make(map[string]int)
	for {
		e, err := p.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("%s: drain: %v", label, err)
		}
		got[string(e.Payload)]++
		if consume != nil {
			consume(e)
		}
		p.Recycle(e)
	}
}

// viewChainRecords drains src -> noop map -> Batch(1) — a chain whose source
// may serve storage views, given the ring handoff — and returns the records
// it delivered.
func viewChainRecords(t *testing.T, label string, fs connector.Connector, reg *udf.Registry, opts Options) map[string]int {
	t.Helper()
	g := pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 2).Map("noop", 2).Batch(1).MustBuild()
	opts.FS, opts.UDFs = fs, reg
	p, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if want := opts.Handoff != HandoffChannel; p.storageViews["src"] != want {
		t.Fatalf("%s: the reference chain may read storage views = %v, want %v", label, !want, want)
	}
	return drainRecords(t, label, p, nil)
}

// TestWritersGetCopies lets a UDF Body and a root consumer write into every
// record they are handed. Both chains must have been served copies: the
// connector's dataset is intact afterwards, and a view chain over the same
// filesystem still delivers the reference multiset.
func TestWritersGetCopies(t *testing.T) {
	want := wantPayloads(t, 1)

	t.Run("body above the source", func(t *testing.T) {
		fs, reg := viewRegistry(t)
		g := pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 2).Map("scribble", 2).Batch(1).MustBuild()
		p, err := New(g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		scribbled := make(map[string]int, len(want))
		for rec, n := range want {
			b := []byte(rec)
			b[0] ^= 0xff
			scribbled[string(b)] = n
		}
		comparePayloadMultisets(t, "scribbling drain", drainRecords(t, "scribbling drain", p, nil), scribbled)
		p.Close()
		storageIntact(t, "scribbling body", fs)
		comparePayloadMultisets(t, "view chain after the scribbling body", viewChainRecords(t, "after body", fs, reg, Options{}), want)
	})

	t.Run("consumer of an unbatched chain", func(t *testing.T) {
		fs, reg := viewRegistry(t)
		g := pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 2).Map("noop", 2).Prefetch(4).MustBuild()
		p, err := New(g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		got := drainRecords(t, "overwriting drain", p, func(e data.Element) {
			if e.ReadOnly {
				t.Fatal("a root element is a view of the connector's storage")
			}
			for i := range e.Payload {
				e.Payload[i] = 0xEE
			}
		})
		p.Close()
		comparePayloadMultisets(t, "overwriting drain", got, want)
		storageIntact(t, "overwriting consumer", fs)
		comparePayloadMultisets(t, "view chain after the overwriting consumer", viewChainRecords(t, "after consumer", fs, reg, Options{}), want)
	})
}

// TestViewPathVerifiesChecksums damages one byte of one record in the
// filesystem's own storage (through a view, which is exactly what views must
// never be used for). The view path checks the payload CRC in place: the
// drain stops with the typed checksum error at that record, having delivered
// the records before it and nothing of it.
func TestViewPathVerifiesChecksums(t *testing.T) {
	fs, reg := testSetup(t)
	spec := testCatalog.GenerateFileSpecs(7)[0]
	const damaged = 10
	off := int64(data.RecordHeaderBytes + 3)
	for _, sz := range spec.RecordSizes[:damaged] {
		off += data.RecordOverheadBytes + sz
	}
	r, err := fs.Open(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reopen(spec.Name, off); err != nil {
		t.Fatal(err)
	}
	b, err := r.(connector.Viewer).View(1)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	r.Close()

	var want [][]byte
	rr := data.NewRecordReader(bytes.NewReader(simfs.FileContent(spec, 7)))
	for i := 0; i < damaged; i++ {
		rec, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}

	g := pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 1).Map("noop", 1).Batch(1).MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.storageViews["src"] {
		t.Fatal("the chain does not read storage views")
	}
	for i := 0; ; i++ {
		e, err := p.Next()
		if err != nil {
			var se *StageError
			if !errors.As(err, &se) || se.Stage != "src" || se.Op != "read" || !strings.Contains(err.Error(), "payload checksum mismatch") {
				t.Fatalf("drain ended with %v, want the source's typed checksum error", err)
			}
			if i != damaged {
				t.Fatalf("delivered %d records before the checksum error, want %d", i, damaged)
			}
			break
		}
		if i >= damaged || !bytes.Equal(e.Payload, want[i]) {
			t.Fatalf("element %d is not record %d of the first shard", i, i)
		}
		p.Recycle(e)
	}
}

// TestViewPathRetryReplaysRecords: scripted transient faults on the first
// two read calls of every shard, absorbed by the retry policy. A faulted
// View consumes nothing and the worker rewinds to the record's header, so
// every record is still delivered exactly once — the same schedule, the same
// retry count, as the copying path.
func TestViewPathRetryReplaysRecords(t *testing.T) {
	want := wantPayloads(t, 1)
	for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} { // views, copies
		fs, reg := testSetup(t)
		fs.SetFaults(&connector.FaultPlan{Seed: 1, Rules: []connector.FaultRule{{Name: "script", FailFirstReads: 2}}})
		got := viewChainRecords(t, string(kind), fs, reg, Options{
			Handoff: kind,
			Retry:   Retry{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond},
		})
		comparePayloadMultisets(t, string(kind), got, want)
		if st := fs.FaultStats(); st.Errors != int64(2*testCatalog.NumFiles) {
			t.Fatalf("%s: plan injected %d errors, want %d", kind, st.Errors, 2*testCatalog.NumFiles)
		}
	}
}

// TestViewChainOverLocalFS: the same chain over a backend with nothing in
// memory to alias reads into pooled buffers and delivers the same records.
func TestViewChainOverLocalFS(t *testing.T) {
	_, reg := testSetup(t)
	lfs := connector.NewLocalFS(t.TempDir())
	if err := lfs.MaterializeCatalog(testCatalog, 7); err != nil {
		t.Fatal(err)
	}
	comparePayloadMultisets(t, "localfs", viewChainRecords(t, "localfs", lfs, reg, Options{}), wantPayloads(t, 1))
}
