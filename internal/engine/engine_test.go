package engine

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

var testCatalog = data.Catalog{
	Name:                  "engine-test",
	NumFiles:              4,
	RecordsPerFile:        50,
	MeanRecordBytes:       256,
	RecordBytesStddevFrac: 0.3,
	DecodeAmplification:   1,
}

var registerOnce sync.Once

func testSetup(t *testing.T) (*connector.SimFS, *udf.Registry) {
	t.Helper()
	registerOnce.Do(func() {
		if err := data.RegisterCatalog(testCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("test-mem")
	fs.AddCatalog(testCatalog, 7)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "noop", Cost: udf.Cost{SizeFactor: 1}}); err != nil {
		t.Fatal(err)
	}
	return fs, reg
}

func canonicalGraph(t *testing.T, par int) *pipeline.Graph {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, par).
		Map("noop", par).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDrainCounts checks element and example accounting on the canonical
// chain at parallelism 1 and 4, across chunked/pooled and the per-element
// baseline configurations.
func TestDrainCounts(t *testing.T) {
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile) // 200
	wantBatches := total / 8                                          // exact: 200/8 = 25
	for _, par := range []int{1, 4} {
		for _, cfg := range []struct {
			name   string
			chunk  int
			noPool bool
		}{
			{"chunked_pooled", 0, false},
			{"per_element", 1, true},
			{"chunk3", 3, false}, // chunk size that does not divide counts
		} {
			fs, reg := testSetup(t)
			p, err := New(canonicalGraph(t, par), Options{
				FS: fs, UDFs: reg, ChunkSize: cfg.chunk, DisableBufferPool: cfg.noPool,
			})
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, cfg.name, err)
			}
			elements, examples, err := p.Drain(0)
			p.Close()
			if err != nil {
				t.Fatalf("par=%d %s: drain: %v", par, cfg.name, err)
			}
			if elements != wantBatches || examples != total {
				t.Fatalf("par=%d %s: got %d elements / %d examples, want %d / %d",
					par, cfg.name, elements, examples, wantBatches, total)
			}
		}
	}
}

// TestPayloadIntegrity reads the catalog directly and compares against the
// batched pipeline output at parallelism 1 (deterministic order). Any
// premature buffer recycle in the pooled hot path corrupts the comparison.
func TestPayloadIntegrity(t *testing.T) {
	fs, reg := testSetup(t)

	var want []byte
	for _, f := range testCatalog.FileNames() {
		r, err := fs.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		rr := data.NewRecordReader(r)
		for {
			rec, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
		}
		r.Close()
	}

	p, err := New(canonicalGraph(t, 1), Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var got []byte
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(e.Payload)) != e.Size {
			t.Fatalf("element size invariant broken: len=%d size=%d", len(e.Payload), e.Size)
		}
		got = append(got, e.Payload...)
		p.Recycle(e)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pipeline output differs from direct read: %d vs %d bytes", len(got), len(want))
	}
}

// TestTracedCounts verifies the sharded counters flush to exact totals.
func TestTracedCounts(t *testing.T) {
	for _, par := range []int{1, 4} {
		fs, reg := testSetup(t)
		g := canonicalGraph(t, par)
		col, err := trace.NewCollector(g, trace.Machine{Name: "test", Cores: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		fs.AddObserver(col)
		p, err := New(g, Options{FS: fs, UDFs: reg, Collector: col, SampleEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Drain(0); err != nil {
			t.Fatal(err)
		}
		p.Close()
		snap := col.Snapshot(0, testCatalog.NumFiles)
		chain, err := snap.ChainStats()
		if err != nil {
			t.Fatal(err)
		}
		// chain: interleave, map, batch, prefetch
		total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
		src, mp, bt, pf := chain[0], chain[1], chain[2], chain[3]
		if src.ElementsProduced != total {
			t.Fatalf("par=%d source produced %d, want %d", par, src.ElementsProduced, total)
		}
		if mp.ElementsConsumed != total || mp.ElementsProduced != total {
			t.Fatalf("par=%d map consumed/produced %d/%d, want %d", par, mp.ElementsConsumed, mp.ElementsProduced, total)
		}
		if bt.ElementsConsumed != total || bt.ElementsProduced != total/8 {
			t.Fatalf("par=%d batch consumed/produced %d/%d", par, bt.ElementsConsumed, bt.ElementsProduced)
		}
		if pf.ElementsProduced != total/8 {
			t.Fatalf("par=%d prefetch produced %d, want %d", par, pf.ElementsProduced, total/8)
		}
		if src.BytesProduced == 0 || src.BytesProduced != mp.BytesProduced {
			t.Fatalf("par=%d bytes: source %d map %d", par, src.BytesProduced, mp.BytesProduced)
		}
		if snap.ObservedFileBytes() == 0 {
			t.Fatalf("par=%d no file bytes observed", par)
		}
	}
}

// TestModeledCPUPerNode drains one cost through each UDF path — a cost-model
// Map, a cost-model Filter and a Map with a Body, inline and on two workers —
// at WorkScale 1 without Spin, and reads each node's CPUNanos: the sum of
// CPUSeconds over its inputs, whether it is charged per element or per run
// (within the 1 ns a charge's truncation may drop per element). Only the
// cost-model Map applies SizeFactor, and only the Filter applies
// KeepFraction.
func TestModeledCPUPerNode(t *testing.T) {
	fs, reg := testSetup(t)
	cost := udf.Cost{CPUPerElement: 20e-6, CPUPerByte: 3e-9, SizeFactor: 2, KeepFraction: 0.5}
	identity := func(in data.Element) (data.Element, bool, error) { return in, true, nil }
	for _, u := range []udf.UDF{{Name: "modeled", Cost: cost}, {Name: "modeled-body", Cost: cost, Body: identity}} {
		if err := reg.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	src := func() *pipeline.Builder { return pipeline.NewBuilder().Interleave(testCatalog.Name, 1) }
	drain := func(g *pipeline.Graph) (map[int64]int64, *trace.NodeStats) {
		t.Helper()
		col, err := trace.NewCollector(g, trace.Machine{Name: "test", Cores: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(g, Options{FS: fs, UDFs: reg, Collector: col, WorkScale: 1})
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[int64]int64{} // element index → size
		for {
			e, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Index] = e.Size
		}
		p.Close()
		ns, err := col.Node("node")
		if err != nil {
			t.Fatal(err)
		}
		return sizes, ns
	}
	inputs, _ := drain(src().Named("node").Map("noop", 1).MustBuild())
	var want float64
	for _, size := range inputs {
		want += cost.CPUSeconds(size) * 1e9
	}
	onTwo := func(g *pipeline.Graph) *pipeline.Graph {
		g, err := g.WithParallelism("node", 2)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name           string
		g              *pipeline.Graph
		drops, resizes bool
	}{
		{"cost-model map", src().Named("node").Map("modeled", 1).MustBuild(), false, true},
		{"cost-model filter", src().Named("node").Filter("modeled").MustBuild(), true, false},
		{"body map", src().Named("node").Map("modeled-body", 1).MustBuild(), false, false},
		{"cost-model map on two workers", src().Named("node").Map("modeled", 2).MustBuild(), false, true},
		{"cost-model filter on two workers", onTwo(src().Named("node").Filter("modeled").MustBuild()), true, false},
		{"body map on two workers", src().Named("node").Map("modeled-body", 2).MustBuild(), false, false},
	} {
		outputs, ns := drain(tc.g)
		if got := float64(ns.CPUNanos); got > want || got < want-float64(len(inputs)) {
			t.Errorf("%s: CPUNanos %.0f, want the inputs' modeled %.0f within %d ns", tc.name, got, want, len(inputs))
		}
		if dropped := len(outputs) < len(inputs); dropped != tc.drops || len(outputs) == 0 {
			t.Errorf("%s: %d of %d inputs delivered", tc.name, len(outputs), len(inputs))
		}
		for i, size := range outputs {
			if in := inputs[i]; tc.resizes && size != 2*in || !tc.resizes && size != in {
				t.Fatalf("%s: element %d of %d bytes delivered at %d", tc.name, i, in, size)
			}
		}
	}
}

// TestUntracedZeroWall documents satellite #3: with no collector, wall
// counters simply do not exist, and draining works identically.
func TestUntracedZeroWall(t *testing.T) {
	fs, reg := testSetup(t)
	p, err := New(canonicalGraph(t, 2), Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatWithCache drains a cached chain whose every stage recycles —
// the source serves storage views, Batch retires what it copies, the
// consumer recycles each minibatch — so elements the cache serves on later
// epochs must still be intact.
func TestRepeatWithCache(t *testing.T) {
	fs, reg := testSetup(t)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Cache().
		Batch(8).
		Repeat(3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	var elements, examples int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(e.Payload)) != e.Size {
			t.Fatalf("cached epoch element corrupt: len=%d size=%d", len(e.Payload), e.Size)
		}
		elements++
		examples += int64(e.Count)
		p.Recycle(e)
	}
	if !p.storageViews[g.Nodes[0].Name] {
		t.Fatal("the source of a cached chain does not serve storage views")
	}
	if examples != 3*total {
		t.Fatalf("got %d examples over 3 epochs, want %d", examples, 3*total)
	}
	if elements != 3*total/8 {
		t.Fatalf("got %d elements, want %d", elements, 3*total/8)
	}
}

// TestAmplifyingMapPooled covers the pooled grow path: a decode-style
// cost-model UDF (SizeFactor 2) must double every payload through the pool
// without corrupting survivors.
func TestAmplifyingMapPooled(t *testing.T) {
	fs, reg := testSetup(t)
	if err := reg.Register(udf.UDF{Name: "decode2x", Cost: udf.Cost{SizeFactor: 2}}); err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("decode2x", 2).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sumSize int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(e.Payload)) != e.Size {
			t.Fatalf("amplified element invariant broken: len=%d size=%d", len(e.Payload), e.Size)
		}
		sumSize += e.Size
		p.Recycle(e)
	}
	// Every record doubled: total equals 2x the source payload bytes.
	var wantBytes int64
	for _, f := range testCatalog.FileNames() {
		r, err := fs.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		rr := data.NewRecordReader(r)
		for {
			rec, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			wantBytes += int64(len(rec)) * 2
		}
		r.Close()
	}
	if sumSize != wantBytes {
		t.Fatalf("amplified bytes = %d, want %d", sumSize, wantBytes)
	}
}

// TestFilterDropRecycle covers the pooled drop path: elements discarded by
// a cost-model filter recycle their buffers, and surviving elements must
// stay intact through batching.
func TestFilterDropRecycle(t *testing.T) {
	fs, reg := testSetup(t)
	if err := reg.Register(udf.UDF{Name: "half", Cost: udf.Cost{KeepFraction: 0.5}}); err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Filter("half").
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	var examples int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(e.Payload)) != e.Size {
			t.Fatalf("survivor corrupt after drop recycling: len=%d size=%d", len(e.Payload), e.Size)
		}
		examples += int64(e.Count)
		p.Recycle(e)
	}
	if examples == 0 || examples >= total {
		t.Fatalf("filter kept %d of %d examples, expected a strict subset", examples, total)
	}
}

// TestSharedCacheStoreServesAcrossInstantiations drains a cached pipeline,
// then re-instantiates the same graph against the same CacheStore: the
// second pipeline must serve entirely from memory, issuing no file reads.
func TestSharedCacheStoreServesAcrossInstantiations(t *testing.T) {
	fs, reg := testSetup(t)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Cache().
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	store := NewCacheStore()
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)

	drain := func() (examples int64) {
		t.Helper()
		p, err := New(g, Options{FS: fs, UDFs: reg, Caches: store})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		_, examples, err = p.Drain(0)
		if err != nil {
			t.Fatal(err)
		}
		return examples
	}

	if got := drain(); got != total {
		t.Fatalf("first drain: %d examples, want %d", got, total)
	}
	readsAfterFill := fs.ReadCalls()
	if got := drain(); got != total {
		t.Fatalf("cached drain: %d examples, want %d", got, total)
	}
	if fs.ReadCalls() != readsAfterFill {
		t.Fatalf("cached re-instantiation touched the filesystem: %d -> %d read calls",
			readsAfterFill, fs.ReadCalls())
	}
}

// TestSharedCacheStoreInvalidatedByRewrite rewrites the chain below the
// cache node between instantiations; the stale entry must be discarded and
// the data re-read, not served from the old chain's contents.
func TestSharedCacheStoreInvalidatedByRewrite(t *testing.T) {
	fs, reg := testSetup(t)
	if err := reg.Register(udf.UDF{Name: "grow2x", Cost: udf.Cost{SizeFactor: 2}}); err != nil {
		t.Fatal(err)
	}
	build := func(udfName string) *pipeline.Graph {
		g, err := pipeline.NewBuilder().
			Interleave(testCatalog.Name, 2).
			Named("mapper").Map(udfName, 2).
			Named("the_cache").Cache().
			Batch(8).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	store := NewCacheStore()
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)

	drainBytes := func(g *pipeline.Graph) (bytes int64) {
		t.Helper()
		p, err := New(g, Options{FS: fs, UDFs: reg, Caches: store})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var examples int64
		for {
			e, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			bytes += e.Size
			examples += int64(e.Count)
		}
		if examples != total {
			t.Fatalf("drained %d examples, want %d", examples, total)
		}
		return bytes
	}

	baseBytes := drainBytes(build("noop"))
	readsAfterFill := fs.ReadCalls()

	// Same chain below the cache: served from memory, same bytes.
	if got := drainBytes(build("noop")); got != baseBytes {
		t.Fatalf("cached drain bytes %d, want %d", got, baseBytes)
	}
	if fs.ReadCalls() != readsAfterFill {
		t.Fatal("unchanged chain should have served from cache")
	}

	// Rewritten chain below the cache (different UDF): entry invalidated,
	// files re-read, and the amplified output proves fresh computation.
	grownBytes := drainBytes(build("grow2x"))
	if grownBytes != 2*baseBytes {
		t.Fatalf("rewritten chain produced %d bytes, want %d (2x): stale cache served", grownBytes, 2*baseBytes)
	}
	if fs.ReadCalls() == readsAfterFill {
		t.Fatal("rewritten chain never touched the filesystem: stale cache served")
	}
}

// TestPrivateCacheStorePerPipeline documents the default: with Options.Caches
// nil, a second instantiation re-reads from disk.
func TestPrivateCacheStorePerPipeline(t *testing.T) {
	fs, reg := testSetup(t)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Cache().
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		before := fs.ReadCalls()
		p, err := New(g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Drain(0); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if fs.ReadCalls() == before {
			t.Fatalf("instantiation %d served from a store that should be private", i)
		}
	}
}

// TestOuterParallelismWithCache pins the replica isolation of cache
// entries: with OuterParallelism 2 and a Cache in the chain, each replica
// fills and serves its own entry, so a multi-epoch drain yields exactly
// epochs x replicas x dataset examples — not interleaved, duplicated fills.
func TestOuterParallelismWithCache(t *testing.T) {
	fs, reg := testSetup(t)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Cache().
		Batch(8).
		Repeat(2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g.OuterParallelism = 2
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var examples int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(e.Payload)) != e.Size {
			t.Fatalf("replicated cached element corrupt: len=%d size=%d", len(e.Payload), e.Size)
		}
		examples += int64(e.Count)
	}
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	if want := 2 * 2 * total; examples != want {
		t.Fatalf("drained %d examples, want %d (2 epochs x 2 replicas x %d)", examples, want, total)
	}
}

// TestChunkedHandoffRace hammers the chunked worker handoff from several
// concurrently-draining pipelines; run with -race in CI.
func TestChunkedHandoffRace(t *testing.T) {
	fs, reg := testSetup(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			p, err := New(canonicalGraph(t, 4), Options{FS: fs, UDFs: reg, ChunkSize: chunk})
			if err != nil {
				t.Error(err)
				return
			}
			defer p.Close()
			total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
			if _, examples, err := p.Drain(0); err != nil || examples != total {
				t.Errorf("chunk=%d: examples=%d err=%v", chunk, examples, err)
			}
		}(1 + i*7)
	}
	wg.Wait()
}

// TestEarlyClose closes a pipeline mid-stream; workers must exit without
// deadlocking and without sending on closed channels.
func TestEarlyClose(t *testing.T) {
	for _, chunk := range []int{1, 64} {
		fs, reg := testSetup(t)
		p, err := New(canonicalGraph(t, 4), Options{FS: fs, UDFs: reg, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Drain(3); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// allocCatalog is long enough for a warm-up and 3 000 minibatches of 8 in
// one epoch, with records small enough that a stray heap object per pull
// would outweigh everything else a pull costs.
var allocCatalog = data.Catalog{
	Name:                  "engine-test-alloc",
	NumFiles:              2,
	RecordsPerFile:        20000,
	MeanRecordBytes:       64,
	RecordBytesStddevFrac: 0.2,
	DecodeAmplification:   1,
}

var registerAllocOnce sync.Once

// TestStagesAllocateNothingPerPull: once warm, pulling a minibatch through
// each sequential stage allocates nothing on the heap. A stage's scratch run
// lives in a struct that already exists; a one-item buffer made per call
// and handed to a child's pull escapes, one object per pull. The last two
// cases take the copy path, where each record is read into a pooled buffer:
// a Body before the Batch, and the source at the root with the consumer
// recycling what it is handed. Every copy must go back to the pool, or a
// pull allocates one buffer per record it carries.
func TestStagesAllocateNothingPerPull(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops a quarter of its Puts under it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	registerAllocOnce.Do(func() {
		if err := data.RegisterCatalog(allocCatalog); err != nil {
			panic(err)
		}
	})
	fs, reg := testSetup(t)
	fs.AddCatalog(allocCatalog, 7)
	if err := reg.Register(udf.UDF{Name: "most", Cost: udf.Cost{KeepFraction: 0.9}}); err != nil {
		t.Fatal(err)
	}
	identity := func(in data.Element) (data.Element, bool, error) { return in, true, nil }
	if err := reg.Register(udf.UDF{Name: "identity", Cost: udf.Cost{SizeFactor: 1}, Body: identity}); err != nil {
		t.Fatal(err)
	}
	src := func() *pipeline.Builder { return pipeline.NewBuilder().Named("src").Interleave(allocCatalog.Name, 1) }
	store := NewCacheStore()
	cached := src().Named("cache").Cache().Batch(8).MustBuild()
	if err := drainAll(cached, Options{FS: fs, Caches: store}); err != nil { // the fill
		t.Fatal(err)
	}
	const warm, measured = 500, 3000
	for _, tc := range []struct {
		name string
		g    *pipeline.Graph
	}{
		{"edge→batch", src().Batch(8).MustBuild()},
		{"filter→take→batch", src().Filter("most").Take(8 * (warm + measured + 100)).Batch(8).MustBuild()},
		{"repeat→batch", src().Repeat(2).Batch(8).MustBuild()},
		{"shuffle→batch", src().Shuffle(64).Batch(8).MustBuild()},
		{"serving cache→batch", cached},
		{"body map→batch (pooled copies)", src().Map("identity", 1).Batch(8).MustBuild()},
		{"cost-model map→batch", src().Map("noop", 1).Batch(8).MustBuild()},
		{"body map on two workers→batch (pooled copies)", src().Map("identity", 2).Batch(8).MustBuild()},
		{"cost-model map on two workers→batch", src().Map("noop", 2).Batch(8).MustBuild()},
		{"body filter→batch (pooled copies)", src().Filter("identity").Batch(8).MustBuild()},
		{"source at the root (pooled copies)", src().MustBuild()},
	} {
		p, err := New(tc.g, Options{FS: fs, UDFs: reg, Caches: store})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Drain(warm); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, _, err := p.Drain(measured)
		runtime.ReadMemStats(&after)
		p.Close()
		if err != nil || n != measured {
			t.Fatalf("%s: drained %d minibatches, want %d: %v", tc.name, n, measured, err)
		}
		if per := float64(after.Mallocs-before.Mallocs) / measured; per >= 0.05 {
			t.Errorf("%s: %.3f heap objects per minibatch, want < 0.05", tc.name, per)
		}
	}
}

// shardCatalogs are two tiny-file datasets that differ only in how many
// shards they hold, so what a drain allocates per pipeline or per worker
// cancels between them. Records allocate nothing once warm
// (TestStagesAllocateNothingPerPull), so what is left is per shard.
var (
	shardCatalogs = [2]data.Catalog{
		{Name: "engine-test-shards-256", NumFiles: 256, RecordsPerFile: 2, MeanRecordBytes: 250, DecodeAmplification: 1},
		{Name: "engine-test-shards-1024", NumFiles: 1024, RecordsPerFile: 2, MeanRecordBytes: 250, DecodeAmplification: 1},
	}
	registerShardsOnce sync.Once
)

// registerShardCatalogs registers shardCatalogs and serves them from memory.
func registerShardCatalogs(t *testing.T) (*connector.SimFS, *udf.Registry) {
	t.Helper()
	registerShardsOnce.Do(func() {
		for _, c := range shardCatalogs {
			if err := data.RegisterCatalog(c); err != nil {
				panic(err)
			}
		}
	})
	fs, reg := testSetup(t)
	for _, c := range shardCatalogs {
		fs.AddCatalog(c, 7)
	}
	return fs, reg
}

// TestOpeningAShardAllocatesNothing: once warm, a source opens a shard for
// no heap object. Shard names are built once per catalog, not per source
// start, and one record reader and one connector reader, reopened on every
// shard, serve every file a worker reads.
func TestOpeningAShardAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops a quarter of its Puts under it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs, reg := registerShardCatalogs(t)
	for _, tc := range []struct {
		name  string
		graph func(cat string) *pipeline.Graph
	}{
		{"views (source→batch)", func(cat string) *pipeline.Graph {
			return pipeline.NewBuilder().Interleave(cat, 1).Batch(8).MustBuild()
		}},
		{"pooled copies (source at the root)", func(cat string) *pipeline.Graph {
			return pipeline.NewBuilder().Interleave(cat, 1).MustBuild()
		}},
	} {
		var mallocs [2]uint64
		for i, c := range shardCatalogs {
			g := tc.graph(c.Name)
			opts := Options{FS: fs, UDFs: reg}
			if err := drainAll(g, opts); err != nil { // warm: shards, pools, names
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := drainAll(g, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			mallocs[i] = after.Mallocs - before.Mallocs
		}
		t.Logf("%s: %d and %d objects per drain", tc.name, mallocs[0], mallocs[1])
		// Signed: the larger catalog's drain may allocate an object fewer.
		extra := shardCatalogs[1].NumFiles - shardCatalogs[0].NumFiles
		if per := (float64(mallocs[1]) - float64(mallocs[0])) / float64(extra); per > 0.05 {
			t.Errorf("%s: %.3f heap objects per shard (%d and %d per drain), want <= 0.05",
				tc.name, per, mallocs[0], mallocs[1])
		}
	}
}

// openCounter counts the readers a connector opens.
type openCounter struct {
	connector.Connector
	opens atomic.Int64
}

func (c *openCounter) Open(path string) (connector.Reader, error) {
	c.opens.Add(1)
	return c.Connector.Open(path)
}

// TestSourceWorkerOpensOnce: in a pooled pipeline each source worker opens
// one connector reader and reopens it on every later shard; the unpooled
// reference configuration opens a reader per shard. Both read every record.
func TestSourceWorkerOpensOnce(t *testing.T) {
	fs, reg := registerShardCatalogs(t)
	cat := shardCatalogs[0]
	const par = 3
	for _, tc := range []struct {
		name               string
		opts               Options
		minOpens, maxOpens int
	}{
		{"pooled", Options{}, 1, par},
		{"unpooled reference", Options{DisableBufferPool: true, ChunkSize: 1, Handoff: HandoffChannel}, cat.NumFiles, cat.NumFiles},
	} {
		conn := &openCounter{Connector: fs}
		tc.opts.FS, tc.opts.UDFs = conn, reg
		p, err := New(pipeline.NewBuilder().Interleave(cat.Name, par).MustBuild(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := p.Drain(0)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(cat.NumFiles * cat.RecordsPerFile); n != want {
			t.Errorf("%s: drained %d records, want %d", tc.name, n, want)
		}
		opens := int(conn.opens.Load())
		if opens < tc.minOpens || opens > tc.maxOpens {
			t.Errorf("%s: %d opens for %d shards at parallelism %d, want %d to %d",
				tc.name, opens, cat.NumFiles, par, tc.minOpens, tc.maxOpens)
		}
	}
}

// drainAll drains g to EOF under opts and closes it.
func drainAll(g *pipeline.Graph, opts Options) error {
	p, err := New(g, opts)
	if err != nil {
		return err
	}
	defer p.Close()
	_, _, err = p.Drain(0)
	return err
}

// amplifyCatalog is the vision workload's dataset: 6 shards of 80 records
// of 8 000 bytes.
var (
	amplifyCatalog = data.Catalog{Name: "engine-test-amplify", NumFiles: 6, RecordsPerFile: 80,
		MeanRecordBytes: 8000, RecordBytesStddevFrac: 0.004, DecodeAmplification: 1}
	registerAmplifyOnce sync.Once
)

// amplifySetup registers amplifyCatalog, serves it from memory and registers
// "inflate", a cost-model map (no Body, no CPU) that grows each record
// fourfold, as a fast decode does.
func amplifySetup(tb testing.TB) (*connector.SimFS, *udf.Registry) {
	tb.Helper()
	registerAmplifyOnce.Do(func() {
		if err := data.RegisterCatalog(amplifyCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("test-amplify")
	fs.AddCatalog(amplifyCatalog, 7)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "inflate", Cost: udf.Cost{SizeFactor: 4}}); err != nil {
		tb.Fatal(err)
	}
	return fs, reg
}

// TestAmplifyingEdgeHoldsBoundedBytes: a fast map that inflates 8 000-byte
// records to 32 000 hands its batch chunks of at most chunkBytes (give or
// take an element), so once warm a drain's decoded buffers come back out of
// the pool and it allocates about two edges' worth of bytes, with no GC.
// Chunks sized by count alone keep up to 64 × 32 KB on each edge: a drain
// after a GC then allocates 5–7 MiB and sets off a GC of its own.
func TestAmplifyingEdgeHoldsBoundedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops a quarter of its Puts under it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs, reg := amplifySetup(t)
	for _, par := range []int{1, 2} {
		g := pipeline.NewBuilder().Interleave(amplifyCatalog.Name, 1).Map("inflate", par).Batch(16).MustBuild()
		opts := Options{FS: fs, UDFs: reg}
		if err := drainAll(g, opts); err != nil { // warm: shards, pools, names
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := drainAll(g, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc, gcs := after.TotalAlloc-before.TotalAlloc, after.NumGC-before.NumGC
		if alloc > 2<<20 || gcs != 0 {
			t.Errorf("map parallelism %d: a drain allocated %.2f MiB and ran %d GCs, want <= 2 MiB and none",
				par, float64(alloc)/(1<<20), gcs)
		}
	}
}
