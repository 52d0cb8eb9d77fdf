package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
	"plumber/internal/trace"
)

// catalogPayloads reads every shard directly through the connector and
// returns the multiset of record payloads, scaled by epochs.
func catalogPayloads(t *testing.T, fs interface {
	List() []string
	Open(string) (connReader, error)
}, epochs int) map[string]int {
	t.Helper()
	m := make(map[string]int)
	for _, path := range fs.List() {
		r, err := fs.Open(path)
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
			m[string(rec)] += epochs
		}
		r.Close()
	}
	return m
}

// connReader matches connector.Reader without importing it here.
type connReader interface {
	io.Reader
	io.Closer
	Path() string
	Offset() int64
	Rewind(int64) error
}

// fsAdapter adapts any connector to the catalogPayloads shape.
type fsAdapter struct {
	list func() []string
	open func(string) (connReader, error)
}

func (a fsAdapter) List() []string                    { return a.list() }
func (a fsAdapter) Open(p string) (connReader, error) { return a.open(p) }

// wantPayloads computes the expected payload multiset for the shared test
// catalog under the given epoch count.
func wantPayloads(t *testing.T, epochs int) map[string]int {
	t.Helper()
	fs, _ := testSetup(t)
	return catalogPayloads(t, fsAdapter{
		list: fs.List,
		open: func(p string) (connReader, error) { return fs.Open(p) },
	}, epochs)
}

// drainWithReconfigs drains the pipeline to EOF on the calling goroutine
// while the supplied reconfiguration script runs concurrently, collecting
// the payload multiset. EOF only terminates the drain once the script has
// finished, so a patch that lands at (or after) stream exhaustion still
// resolves instead of deadlocking.
func drainWithReconfigs(t *testing.T, p *Pipeline, script func()) (got map[string]int, examples int64) {
	t.Helper()
	got = make(map[string]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		script()
	}()
	// Wait until the script's first Reconfigure has actually registered its
	// quiesce request before pumping elements. Without this, a one-core
	// scheduler can let the consumer drain the whole stream before the
	// script goroutine ever runs, and the patch would only land at true EOF.
	for !p.quiesce.Load() {
		select {
		case <-done:
		default:
			runtime.Gosched()
			continue
		}
		break
	}
	scriptDone := false
	for {
		e, err := p.Next()
		if err == io.EOF {
			if scriptDone {
				break
			}
			select {
			case <-done:
				scriptDone = true
			default:
				runtime.Gosched()
			}
			continue
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if e.Payload != nil {
			got[string(e.Payload)]++
		}
		examples += int64(e.Count)
		p.Recycle(e)
	}
	<-done
	return got, examples
}

func comparePayloadMultisets(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: payload delivered %d times, want %d (len %d)", label, got[k], n, len(k))
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Fatalf("%s: unexpected payload delivered %d times (len %d)", label, n, len(k))
		}
	}
}

// TestReconfigureParallelismExact applies a parallelism patch (1 -> 4 on
// both the interleave and the map) to a running pipeline on both handoff
// kinds and checks that every record is delivered exactly once, byte for
// byte — nothing dropped at the barrier, nothing re-read after it.
func TestReconfigureParallelismExact(t *testing.T) {
	want := wantPayloads(t, 1)
	for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
		fs, reg := testSetup(t)
		g := pipeline.NewBuilder().
			Named("src").Interleave(testCatalog.Name, 1).
			Named("decode").Map("noop", 1).
			MustBuild()
		p, err := New(g, Options{FS: fs, UDFs: reg, Handoff: kind, ChunkSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		var rep ReconfigReport
		got, examples := drainWithReconfigs(t, p, func() {
			ng, err := p.Graph().WithParallelism("src", 4)
			if err != nil {
				t.Error(err)
				return
			}
			if ng, err = ng.WithParallelism("decode", 4); err != nil {
				t.Error(err)
				return
			}
			var rerr error
			rep, rerr = p.Reconfigure(Patch{Graph: ng})
			if rerr != nil {
				t.Errorf("%s: Reconfigure: %v", kind, rerr)
			}
		})
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
		if examples != total {
			t.Fatalf("%s: drained %d examples, want %d", kind, examples, total)
		}
		comparePayloadMultisets(t, string(kind), got, want)
		if gp := p.Graph(); gp.Nodes[gp.NodeIndex("decode")].Parallelism != 4 {
			t.Fatalf("%s: live graph not patched", kind)
		}
		if rep.QuiesceDuration <= 0 {
			t.Fatalf("%s: report missing quiesce duration: %+v", kind, rep)
		}
	}
}

// TestReconfigureCacheInsertMidEpoch inserts a Cache node into a running
// repeated pipeline. The interrupted epoch passes through (a mid-stream
// fill would materialize only the tail); the next full epoch fills the
// entry; the final epoch serves from it. Delivery stays exact throughout.
func TestReconfigureCacheInsertMidEpoch(t *testing.T) {
	const epochs = 3
	want := wantPayloads(t, epochs)
	fs, reg := testSetup(t)
	store := NewCacheStore()
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map("noop", 2).
		Repeat(epochs).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg, Caches: store, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, examples := drainWithReconfigs(t, p, func() {
		ng, err := p.Graph().InsertAbove("decode", pipeline.Node{Name: "hotcache", Kind: pipeline.KindCache})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.Reconfigure(Patch{Graph: ng}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	p.Close()
	total := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * epochs
	if examples != total {
		t.Fatalf("drained %d examples, want %d", examples, total)
	}
	comparePayloadMultisets(t, "cache-insert", got, want)
	if _, complete, ok := store.peek("hotcache"); !ok || !complete {
		t.Fatalf("cache entry after run: ok=%v complete=%v, want a completed fill from the first post-patch epoch", ok, complete)
	}
}

// TestReconfigureCacheRemoveMidFill removes a Cache node while its first
// epoch is still filling. The fill is abandoned (never marked complete)
// and the stream continues from the sources exactly.
func TestReconfigureCacheRemoveMidFill(t *testing.T) {
	const epochs = 2
	want := wantPayloads(t, epochs)
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map("noop", 2).
		Named("hotcache").Cache().
		Repeat(epochs).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, examples := drainWithReconfigs(t, p, func() {
		ng, err := p.Graph().Remove("hotcache")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.Reconfigure(Patch{Graph: ng}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	p.Close()
	total := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * epochs
	if examples != total {
		t.Fatalf("drained %d examples, want %d", examples, total)
	}
	comparePayloadMultisets(t, "cache-remove", got, want)
}

// TestReconfigureServingCacheGuard drains past the first (filling) epoch so
// the cache is mid-way through *serving*, then tries to remove it. The
// patch must be rejected — the served prefix has no source position to
// resume from — and the pipeline must finish the stream unchanged.
func TestReconfigureServingCacheGuard(t *testing.T) {
	const epochs = 3
	perEpoch := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("hotcache").Cache().
		Repeat(epochs).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var examples int64
	// Epoch 1 fills the cache; stop mid-epoch-2 while it is serving.
	for examples < perEpoch+perEpoch/2 {
		e, err := p.Next()
		if err != nil {
			t.Fatalf("pre-drain: %v", err)
		}
		examples += int64(e.Count)
		p.Recycle(e)
	}
	var rerr error
	_, rest := drainWithReconfigs(t, p, func() {
		ng, err := p.Graph().Remove("hotcache")
		if err != nil {
			t.Error(err)
			return
		}
		_, rerr = p.Reconfigure(Patch{Graph: ng})
	})
	examples += rest
	if rerr == nil || !strings.Contains(rerr.Error(), "mid-serve") {
		t.Fatalf("Reconfigure error = %v, want mid-serve rejection", rerr)
	}
	p.Close()
	if want := perEpoch * epochs; examples != want {
		t.Fatalf("drained %d examples, want %d (rejected patch must not disturb the stream)", examples, want)
	}
}

// TestReconfigureAfterFillCompleted is the reproducer for an epoch delivered
// twice: a root prefetch runs the fill of a small catalog to its end, so the
// cache below it is complete — and every source exhausted — before the
// consumer has taken its second element. A hot-apply landing then used to
// rebuild a cache that found its entry complete and served it again from
// element 0 (2 epochs x 48 examples delivered 144). The barrier is asked for
// after the consumer's 1st, 2nd or 3rd element, with the same graph, with a
// patch that invalidates the entry, and with one that removes the cache; with
// a Repeat above the source and without; batched (exact example count) and
// per record (payload multiset), on both handoffs.
func TestReconfigureAfterFillCompleted(t *testing.T) {
	_, reg := testSetup(t)
	patches := map[string]func(g *pipeline.Graph) (*pipeline.Graph, error){
		"same":       func(g *pipeline.Graph) (*pipeline.Graph, error) { return g, nil },
		"invalidate": func(g *pipeline.Graph) (*pipeline.Graph, error) { return g.WithParallelism("decode", 2) },
		"uncache":    func(g *pipeline.Graph) (*pipeline.Graph, error) { return g.Remove("hotcache") },
	}
	const perEpoch = 48
	run := func(kind HandoffKind, batched bool, epochs int, patchName string, after int) {
		label := fmt.Sprintf("%s batched=%v epochs=%d patch=%s after=%d", kind, batched, epochs, patchName, after)
		fs := memFS(t, smallCatalog)
		b := pipeline.NewBuilder().
			Named("src").Interleave(smallCatalog.Name, 1).
			Named("decode").Map("noop", 1)
		if batched {
			b = b.Batch(16)
		}
		b = b.Named("hotcache").Cache().Prefetch(256)
		if epochs > 1 {
			b = b.Repeat(int64(epochs))
		}
		p, err := New(b.MustBuild(), Options{FS: fs, UDFs: reg, Handoff: kind})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got := make(map[string]int)
		var examples int64
		done := make(chan struct{})
		for n := 1; ; n++ {
			e, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got[string(e.Payload)]++
			examples += int64(e.Count)
			if n != after {
				continue
			}
			// The prefetch completes the fill on its own; wait for that,
			// then for the barrier request to register (or fail).
			for {
				if _, complete, ok := p.caches.peek("hotcache"); ok && complete {
					break
				}
				runtime.Gosched()
			}
			go func() {
				defer close(done)
				ng, err := patches[patchName](p.Graph())
				if err == nil {
					_, err = p.Reconfigure(Patch{Graph: ng})
				}
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}()
			for registered := false; !registered && !p.quiesce.Load(); {
				select {
				case <-done:
					registered = true
				default:
					runtime.Gosched()
				}
			}
		}
		<-done
		if want := int64(perEpoch * epochs); examples != want {
			t.Fatalf("%s: delivered %d examples, want %d", label, examples, want)
		}
		if !batched {
			want := catalogPayloads(t, fsAdapter{
				list: fs.List,
				open: func(path string) (connReader, error) { return fs.Open(path) },
			}, epochs)
			comparePayloadMultisets(t, label, got, want)
		}
	}
	for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
		for _, batched := range []bool{true, false} {
			for _, epochs := range []int{1, 2} {
				for name := range patches {
					for after := 1; after <= 3; after++ {
						run(kind, batched, epochs, name, after)
					}
				}
			}
		}
	}
}

// TestReconfigureValidation checks the hot-patch boundary: patches that
// change outer parallelism, replace the source, or alter Repeat/Take
// structure are rejected up front, before any quiesce starts.
func TestReconfigureValidation(t *testing.T) {
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map("noop", 2).
		Repeat(2).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cases := []struct {
		name string
		make func() (*pipeline.Graph, error)
		want string
	}{
		{"outer", func() (*pipeline.Graph, error) { return p.Graph().WithOuterParallelism(2) }, "outer parallelism"},
		{"repeat", func() (*pipeline.Graph, error) {
			ng := p.Graph()
			i := ng.NodeIndex("repeat_1")
			ng.Nodes[i].Count = 5
			return ng, nil
		}, "Repeat/Take"},
		{"take", func() (*pipeline.Graph, error) {
			return p.Graph().InsertAbove("decode", pipeline.Node{Name: "lim", Kind: pipeline.KindTake, Count: 10})
		}, "Repeat/Take"},
	}
	for _, tc := range cases {
		ng, err := tc.make()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := p.Reconfigure(Patch{Graph: ng}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Reconfigure error = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The rejected patches must not have perturbed the pipeline.
	_, examples, err := p.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * 2; examples != want {
		t.Fatalf("drained %d examples after rejections, want %d", examples, want)
	}
}

// TestReconfigureTortureFlat is the -race torture test on the flat chain:
// random Reconfigure calls — parallelism up/down, cache insert/remove,
// same-graph rebuilds — against a draining repeated pipeline, on both
// handoff kinds, with byte-exact delivery asserted.
// It runs on the free chain and on a mixed-cost one — a 200 µs/element map
// above the free one — so barriers also land between stages whose handoffs
// carry 64 elements and stages whose handoffs carry a few.
func TestReconfigureTortureFlat(t *testing.T) {
	for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
		for _, mixed := range []bool{false, true} {
			tortureFlat(t, kind, mixed)
		}
	}
}

func tortureFlat(t *testing.T, kind HandoffKind, mixed bool) {
	const epochs = 3
	const rounds = 6
	want := wantPayloads(t, epochs)
	label := fmt.Sprintf("%s mixed=%v", kind, mixed)
	fs, _ := testSetup(t)
	reg := costedRegistry(t, 200*time.Microsecond, true)
	b := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map("noop", 2)
	stages := []string{"src", "decode"}
	if mixed {
		b = b.Named("augment").Map("costly", 2)
		stages = append(stages, "augment")
	}
	p, err := New(b.Repeat(epochs).MustBuild(), Options{FS: fs, UDFs: reg, ChunkSize: 8, Handoff: kind})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(0x7a317 ^ hashName(label))
	var applied, rejected atomic.Int64
	got, examples := drainWithReconfigs(t, p, func() {
		for i := 0; i < rounds; i++ {
			ng := p.Graph()
			var err error
			switch rng.Intn(4) {
			case 0, 1: // parallelism shuffle
				for _, name := range stages {
					if err == nil {
						ng, err = ng.WithParallelism(name, 1+rng.Intn(4))
					}
				}
			case 2: // cache toggle
				if ng.NodeIndex("hotcache") >= 0 {
					ng, err = ng.Remove("hotcache")
				} else {
					ng, err = ng.InsertAbove("decode", pipeline.Node{Name: "hotcache", Kind: pipeline.KindCache})
				}
			case 3: // same graph, edges rebuilt
				ng = nil
			}
			if err != nil {
				t.Error(err)
				return
			}
			_, rerr := p.Reconfigure(Patch{Graph: ng})
			switch {
			case rerr == nil:
				applied.Add(1)
			case strings.Contains(rerr.Error(), "mid-serve"):
				rejected.Add(1) // legal outcome: patch hit a serving cache
			default:
				t.Errorf("round %d: Reconfigure: %v", i, rerr)
				return
			}
		}
	})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	total := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * epochs
	if examples != total {
		t.Fatalf("%s: drained %d examples, want %d (applied=%d rejected=%d)",
			label, examples, total, applied.Load(), rejected.Load())
	}
	comparePayloadMultisets(t, label, got, want)
	if applied.Load() == 0 {
		t.Fatalf("%s: no reconfiguration was applied", label)
	}
}

// TestReconfigureTortureStaged runs the torture loop on the full staged
// chain (interleave -> map -> batch -> prefetch), asserting exact example
// accounting (batch boundaries may legally shift at a barrier, so element
// counts are range-checked rather than exact). With the no-op map the source
// serves storage views across every barrier; with a Body in its place it
// reads into pooled buffers, so both read paths are quiesced and resumed.
func TestReconfigureTortureStaged(t *testing.T) {
	for _, decode := range []string{"noop", "costly"} {
		tortureStaged(t, decode)
	}
}

func tortureStaged(t *testing.T, decode string) {
	const epochs = 2
	const rounds = 5
	fs, _ := testSetup(t)
	reg := costedRegistry(t, 0, false)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map(decode, 2).
		Repeat(epochs).
		Batch(8).
		Prefetch(4).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if views := p.storageViews["src"]; views != (decode == "noop") {
		t.Fatalf("decode=%s: source serves storage views = %v", decode, views)
	}
	rng := stats.NewRNG(0xfeed)
	var elements int64
	gotExamples := int64(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			ng, err := p.Graph().WithParallelism("src", 1+rng.Intn(3))
			if err == nil {
				ng, err = ng.WithParallelism("decode", 1+rng.Intn(3))
			}
			if err != nil {
				t.Error(err)
				return
			}
			if _, rerr := p.Reconfigure(Patch{Graph: ng}); rerr != nil {
				t.Errorf("round %d: %v", i, rerr)
				return
			}
		}
	}()
	for !p.quiesce.Load() {
		select {
		case <-done:
		default:
			runtime.Gosched()
			continue
		}
		break
	}
	scriptDone := false
	for {
		e, err := p.Next()
		if err == io.EOF {
			if scriptDone {
				break
			}
			select {
			case <-done:
				scriptDone = true
			default:
				runtime.Gosched()
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		elements++
		gotExamples += int64(e.Count)
		p.Recycle(e)
	}
	<-done
	p.Close()
	total := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * epochs
	if gotExamples != total {
		t.Fatalf("decode=%s: drained %d examples, want %d", decode, gotExamples, total)
	}
	minBatches := total / 8
	if elements < minBatches || elements > minBatches+rounds+epochs {
		t.Fatalf("decode=%s: drained %d batch elements, want within [%d, %d]", decode, elements, minBatches, minBatches+rounds+epochs)
	}
}

// TestReconfigureTracedAcrossPatch checks that a collector survives a graph
// patch: counters for surviving nodes keep accumulating (never reset), an
// inserted node gets fresh counters, and the final snapshot's root produced
// count equals what the consumer actually received.
func TestReconfigureTracedAcrossPatch(t *testing.T) {
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 1).
		Named("decode").Map("noop", 1).
		MustBuild()
	col, err := trace.NewCollector(g, trace.Machine{Name: "test", Cores: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{FS: fs, UDFs: reg, Collector: col, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	got, _ := drainWithReconfigs(t, p, func() {
		ng, err := p.Graph().WithParallelism("decode", 4)
		if err == nil {
			ng, err = ng.InsertAbove("decode", pipeline.Node{Name: "mid", Kind: pipeline.KindPrefetch, BufferSize: 8})
		}
		if err != nil {
			t.Error(err)
			return
		}
		if _, rerr := p.Reconfigure(Patch{Graph: ng}); rerr != nil {
			t.Errorf("Reconfigure: %v", rerr)
		}
	})
	p.Close()
	for _, n := range got {
		delivered += int64(n)
	}
	snap := col.Snapshot(time.Second, testCatalog.NumFiles)
	root, err := snap.RootStats()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	if root.ElementsProduced != total {
		t.Fatalf("root produced %d after patch, want %d", root.ElementsProduced, total)
	}
	if snap.Graph.NodeIndex("mid") < 0 {
		t.Fatal("snapshot graph missing inserted node")
	}
	if _, ok := snap.Nodes["mid"]; !ok {
		t.Fatal("snapshot missing counters for inserted node")
	}
	if delivered != total {
		t.Fatalf("delivered %d unique-counted payloads, want %d", delivered, total)
	}
}

// TestReconfigureWithSharedPool checks that pool admission follows a
// parallelism patch: the pipeline keeps its tenant and drains exactly under
// the patched widths.
func TestReconfigureWithSharedPool(t *testing.T) {
	fs, reg := testSetup(t)
	pool := NewSharedPool(2)
	if err := pool.Admit("t1", 2); err != nil {
		t.Fatal(err)
	}
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("decode").Map("noop", 2).
		MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg, Pool: pool, PoolTenant: "t1", ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, examples := drainWithReconfigs(t, p, func() {
		ng, err := p.Graph().WithParallelism("decode", 4)
		if err != nil {
			t.Error(err)
			return
		}
		if _, rerr := p.Reconfigure(Patch{Graph: ng}); rerr != nil {
			t.Errorf("Reconfigure: %v", rerr)
		}
	})
	p.Close()
	if total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile); examples != total {
		t.Fatalf("drained %d examples, want %d", examples, total)
	}
}

// TestReconfigureOuterReplicas reconfigures a pipeline of two outer replicas,
// each with its own cache entry and resume state: src -> decode -> Cache ->
// Repeat(3) -> Batch. The first patch raises decode's parallelism while the
// caches fill, which changes their entries' signature: the rebuilt caches
// pass the rest of epoch 1 through and epoch 2 fills them again. The second
// inserts a Prefetch above the caches while they serve epoch 3: each replica
// resumes at its own position. The delivered examples and bytes must equal an
// unpatched drain's.
func TestReconfigureOuterReplicas(t *testing.T) {
	const epochs, perEpoch = 3, 4 * 50 // testCatalog: 4 files of 50 records
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 1).
		Named("decode").Map("noop", 1).
		Named("hotcache").Cache().
		Repeat(epochs).
		Batch(8).
		MustBuild()
	g.OuterParallelism = 2
	patches := []struct {
		at    int64 // examples delivered before the patch is asked for
		apply func(*pipeline.Graph) (*pipeline.Graph, error)
	}{
		{perEpoch / 2, func(g *pipeline.Graph) (*pipeline.Graph, error) { return g.WithParallelism("decode", 2) }},
		{5 * perEpoch, func(g *pipeline.Graph) (*pipeline.Graph, error) {
			return g.InsertAbove("hotcache", pipeline.Node{Name: "ahead", Kind: pipeline.KindPrefetch, BufferSize: 4})
		}},
	}
	drain := func(patched bool) (examples int64, bytes [256]int64) {
		fs, reg := testSetup(t)
		p, err := New(g, Options{FS: fs, UDFs: reg, ChunkSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		next := 0
		for {
			if patched && next < len(patches) && examples >= patches[next].at {
				_, complete, _ := p.caches.peek("hotcache#1")
				if serving := next == 1; complete != serving {
					t.Fatalf("patch %d asked for with replica 1's cache complete=%v", next, complete)
				}
				ng, err := patches[next].apply(p.Graph())
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { _, err := p.Reconfigure(Patch{Graph: ng}); done <- err }()
				for !p.quiesce.Load() && len(done) == 0 {
					runtime.Gosched()
				}
				defer func(i int) {
					if err := <-done; err != nil {
						t.Errorf("patch %d: %v", i, err)
					}
				}(next)
				next++
			}
			e, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			examples += int64(e.Count)
			for _, b := range e.Payload {
				bytes[b]++
			}
			p.Recycle(e)
		}
		if patched {
			for _, key := range []string{"hotcache", "hotcache#1"} {
				if _, complete, ok := p.caches.peek(key); !ok || !complete {
					t.Fatalf("cache %s after the run: ok=%v complete=%v, want epoch 2's refill", key, ok, complete)
				}
			}
		}
		return examples, bytes
	}
	wantExamples, wantBytes := drain(false)
	if wantExamples != 2*epochs*perEpoch {
		t.Fatalf("unpatched drain delivered %d examples, want %d", wantExamples, 2*epochs*perEpoch)
	}
	gotExamples, gotBytes := drain(true)
	if gotExamples != wantExamples || gotBytes != wantBytes {
		t.Fatalf("patched drain delivered %d examples (bytes equal: %v), want %d", gotExamples, gotBytes == wantBytes, wantExamples)
	}
}
