package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// chunkLog is a stage edge that only records what it is sent.
type chunkLog struct {
	handoff // nil: the emitter under test must call nothing else
	sizes   []int
	full    bool          // refuse trySend, so every chunk takes the blocking path
	block   time.Duration // how long that path blocks
}

func (l *chunkLog) trySend(w int, c []item) bool {
	if l.full {
		return false
	}
	l.sizes = append(l.sizes, len(c))
	return true
}

func (l *chunkLog) send(w int, c []item, done <-chan struct{}) bool {
	time.Sleep(l.block)
	l.sizes = append(l.sizes, len(c))
	return true
}

// busy burns d of this goroutine's time, like a UDF body would.
func busy(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestChunkEmitterSizesByTime pins the handoff sizing rule on the emitter
// alone: the first chunk is one element, every later chunk is about
// handoffQuantum of the work just timed, within [1, ChunkSize]; time spent
// blocked in the send is not work; an emitter nobody calls ready on keeps
// its size.
func TestChunkEmitterSizesByTime(t *testing.T) {
	p := &Pipeline{opts: Options{ChunkSize: 64}}
	emit := func(l *chunkLog, n int, work func()) []int {
		em := p.emitter(l, 0, nil, &slot{})
		for i := 0; i < n; i++ {
			if !em.ready() {
				t.Fatal("ready refused without a pool")
			}
			work()
			em.add(item{})
		}
		em.flush()
		return l.sizes
	}

	// Work far below quantum/ChunkSize per element: one probe element, then
	// full chunks. A cold first element or a preempted chunk can measure
	// slow and legally be followed by a short chunk, so the bar is that at
	// least 8 of the 10 chunks' worth of elements travel in full chunks.
	mostlyFull := func(label string, got []int) {
		t.Helper()
		full := 0
		for _, n := range got {
			if n == 64 {
				full++
			}
		}
		if got[0] != 1 || full < 8 {
			t.Fatalf("%s: chunks %v, want one probe element and then 64-element chunks", label, got)
		}
	}
	mostlyFull("free work", emit(&chunkLog{}, 1+10*64, func() {}))
	// Two quanta per element: every element goes alone.
	for i, n := range emit(&chunkLog{}, 5, func() { time.Sleep(2 * handoffQuantum) }) {
		if n != 1 {
			t.Fatalf("2 ms/element: chunk %d carries %d elements, want 1", i, n)
		}
	}
	// A twentieth of a quantum per element: chunks of at most 20 (a busy
	// loop never undershoots), and some amortization (above 1).
	got := emit(&chunkLog{}, 200, func() { busy(handoffQuantum / 20) })
	most := 0
	for _, n := range got[1:] {
		if n > 20 {
			t.Fatalf("50 µs/element: a chunk carries %d elements (%v), want <= 20", n, got)
		}
		most = max(most, n)
	}
	if most < 2 {
		t.Fatalf("50 µs/element: chunks %v never grew past one element", got)
	}
	// Free work behind an edge that blocks every send for 5 quanta: the
	// wait must not be mistaken for work, so chunks still fill up.
	mostlyFull("blocked sends", emit(&chunkLog{full: true, block: 5 * handoffQuantum}, 1+10*64, func() {}))
	// No ready calls (the prefetch goroutine): the size it was built with.
	l := &chunkLog{}
	em := chunkEmitter{h: l, size: 4, max: 4}
	for i := 0; i < 12; i++ {
		time.Sleep(handoffQuantum / 4)
		em.add(item{})
	}
	if fmt.Sprint(l.sizes) != "[4 4 4]" {
		t.Fatalf("untimed emitter: chunks %v, want [4 4 4]", l.sizes)
	}
}

// byteLog is a stage edge that records the element sizes of every chunk it
// is sent.
type byteLog struct {
	handoff
	chunks [][]int64
}

func (l *byteLog) trySend(w int, c []item) bool {
	sizes := make([]int64, len(c))
	for i := range c {
		sizes[i] = c[i].elem.Size
	}
	l.chunks = append(l.chunks, sizes)
	return true
}

// TestChunkEmitterBoundsBytes pins the byte bound on the emitter alone, on a
// fake clock at a pace (1 µs an element) where time alone would fill every
// chunk to ChunkSize: before its last element no chunk holds chunkBytes of
// payload, whatever the element sizes, while 1 000-byte elements (the hotpath
// workload's records) still travel in 64-element chunks.
func TestChunkEmitterBoundsBytes(t *testing.T) {
	emit := func(n int, size func(k int) int64) [][]int64 {
		clk := &fakeClock{now: time.Unix(0, 0)}
		l := &byteLog{}
		p := &Pipeline{opts: Options{ChunkSize: 64}}
		em := p.emitter(l, 0, nil, &slot{})
		em.clock = clk.read
		for k := 0; k < n; k++ {
			em.ready()
			clk.now = clk.now.Add(time.Microsecond)
			em.add(item{elem: data.Element{Size: size(k), Count: 1}})
		}
		em.flush()
		return l.chunks
	}
	bounded := func(label string, chunks [][]int64) {
		t.Helper()
		for i, c := range chunks {
			var before int64
			for _, s := range c[:len(c)-1] {
				before += s
			}
			if before >= chunkBytes {
				t.Fatalf("%s: chunk %d holds %d B in %d elements before its last, want < %d", label, i, before, len(c)-1, chunkBytes)
			}
		}
	}
	large := emit(1+2*100, func(int) int64 { return 32 << 10 })
	bounded("32 KiB elements", large)
	for i, c := range large[1:] {
		if len(c) != 2 {
			t.Fatalf("32 KiB elements: chunk %d carries %d elements, want 2 (a chunkBytes each)", i+1, len(c))
		}
	}
	small := emit(1+10*64, func(int) int64 { return 1000 })
	bounded("1 000 B elements", small)
	for i, c := range small[1:] {
		if len(c) != 64 {
			t.Fatalf("1 000 B elements: chunk %d carries %d elements, want 64", i+1, len(c))
		}
	}
	rng := stats.NewRNG(44)
	mixed := emit(2000, func(int) int64 {
		if rng.Intn(4) == 0 {
			return int64(rng.Intn(48 << 10))
		}
		return int64(rng.Intn(2000))
	})
	bounded("mixed sizes", mixed)
	if len(mixed) > 2000/2 {
		t.Fatalf("mixed sizes: %d chunks for 2000 elements, want most to carry several", len(mixed))
	}
}

// costedRegistry registers "costly": an identity Map whose Body really takes
// the given time per element — asleep when sleep is set, else burning CPU —
// so the engine's measured-time path sees it (the cost model alone, without
// Spin, takes no time).
func costedRegistry(t *testing.T, per time.Duration, sleep bool) *udf.Registry {
	t.Helper()
	_, reg := testSetup(t)
	err := reg.Register(udf.UDF{Name: "costly", Cost: udf.Cost{SizeFactor: 1},
		Body: func(in data.Element) (data.Element, bool, error) {
			switch {
			case per <= 0:
			case sleep:
				time.Sleep(per)
			default:
				busy(per)
			}
			return in, true, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// smallCatalog fits in the stage buffers whole: 48 records, three minibatches
// of 16, less than a root prefetch holds.
var smallCatalog = data.Catalog{
	Name:                  "engine-test-small",
	NumFiles:              3,
	RecordsPerFile:        16,
	MeanRecordBytes:       64,
	RecordBytesStddevFrac: 0.2,
	DecodeAmplification:   1,
}

var registerSmallOnce sync.Once

// memFS serves testCatalog or smallCatalog from memory, registering the
// catalog on first use.
func memFS(t *testing.T, cat data.Catalog) *connector.SimFS {
	t.Helper()
	testSetup(t)
	registerSmallOnce.Do(func() {
		if err := data.RegisterCatalog(smallCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("mem-" + cat.Name)
	fs.AddCatalog(cat, 7)
	return fs
}

// drainPayloads drains p to EOF and returns the payload multiset.
func drainPayloads(t *testing.T, label string, p *Pipeline) map[string]int {
	t.Helper()
	got := make(map[string]int)
	for {
		e, err := p.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got[string(e.Payload)]++
		p.Recycle(e)
	}
}

// TestTimeSizedHandoffsDeliverTheReferenceMultiset drains source -> map under
// time-sized handoffs — a Body that costs nothing, 50 µs of CPU, or 2 ms
// asleep per element, so chunks sit at the cap, in between, and at one
// element — at parallelism 1, 2 and 4, on both edges, with and without a
// shared pool, and requires the payload multiset of the per-element
// reference configuration (ChunkSize 1, one worker, no pool).
func TestTimeSizedHandoffsDeliverTheReferenceMultiset(t *testing.T) {
	for _, tc := range []struct {
		per   time.Duration
		sleep bool
		cat   data.Catalog
	}{
		{0, false, testCatalog},
		{50 * time.Microsecond, false, testCatalog},
		{2 * time.Millisecond, true, smallCatalog}, // 48 records keep the slow case short
	} {
		reg := costedRegistry(t, tc.per, tc.sleep)
		fs := memFS(t, tc.cat)
		graph := func(par int) *pipeline.Graph {
			return pipeline.NewBuilder().
				Named("src").Interleave(tc.cat.Name, par).
				Named("work").Map("costly", par).
				MustBuild()
		}
		ref, err := New(graph(1), Options{FS: fs, UDFs: reg, ChunkSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := drainPayloads(t, "reference", ref)
		ref.Close()
		if n := tc.cat.NumFiles * tc.cat.RecordsPerFile; len(want) != n {
			t.Fatalf("reference drain delivered %d distinct payloads, catalog has %d records", len(want), n)
		}
		for _, par := range []int{1, 2, 4} {
			for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
				for _, pooled := range []bool{false, true} {
					label := fmt.Sprintf("%v/element par=%d %s pooled=%v", tc.per, par, kind, pooled)
					opts := Options{FS: fs, UDFs: reg, Handoff: kind}
					if pooled {
						opts.Pool, opts.PoolTenant = NewSharedPool(2), "t"
						if err := opts.Pool.Admit("t", 2); err != nil {
							t.Fatal(err)
						}
					}
					p, err := New(graph(par), opts)
					if err != nil {
						t.Fatal(err)
					}
					got := drainPayloads(t, label, p)
					if err := p.Close(); err != nil {
						t.Fatalf("%s: close: %v", label, err)
					}
					comparePayloadMultisets(t, label, got, want)
				}
			}
		}
	}
}

// bestOf runs measure up to three times and reports whether any run
// satisfied it. Both timing checks below bound a wall time from above on a
// fresh pipeline's first drain; a loaded host only ever adds to that time,
// so one clean run in three shows the engine can do it, and a regression —
// 64-element handoffs again — fails all three.
func bestOf(measure func() (ok bool, detail string)) (bool, string) {
	var detail string
	for i := 0; i < 3; i++ {
		var ok bool
		if ok, detail = measure(); ok {
			return true, detail
		}
	}
	return false, detail
}

// slowMapDrain builds source(1) -> map("costly", par) [-> batch -> prefetch]
// over testCatalog with a 1 ms/element Body and times a fresh pipeline's
// first drain: to the first element, and to EOF. The Body sleeps: what is
// checked is how the engine spreads and hands off the work, which a sleeping
// worker shows as well as a spinning one, without needing idle cores that
// the packages tested in parallel with this one are also spinning on.
func slowMapDrain(t *testing.T, par int, batched bool) (first, total time.Duration) {
	t.Helper()
	reg := costedRegistry(t, time.Millisecond, true)
	b := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 1).
		Named("work").Map("costly", par)
	if batched {
		b = b.Batch(16).Prefetch(8)
	}
	p, err := New(b.MustBuild(), Options{FS: memFS(t, testCatalog), UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	for n := 0; ; n++ {
		e, err := p.Next()
		if err == io.EOF {
			return first, time.Since(start)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = time.Since(start)
		}
		p.Recycle(e)
	}
}

// TestInlineRunsAreSizedByTheirWork: an inline Map at 1 ms an element pulls
// runs of about a quantum of its work, one element, not the Batch's 16, and
// raises the progress lump once per run, so a trace under a rule that never
// fires samples about every element. Pulling the Batch's runs whole sampled
// vision's planning trace once a minibatch, and its optimize_s read 0.114 s
// instead of 0.039.
func TestInlineRunsAreSizedByTheirWork(t *testing.T) {
	reg := costedRegistry(t, time.Millisecond, true)
	g := pipeline.NewBuilder().
		Named("src").Interleave(smallCatalog.Name, 1).
		Named("work").Map("costly", 1).
		Named("batch").Batch(16).
		MustBuild()
	snap, err := TraceRun(g, Options{FS: memFS(t, smallCatalog), UDFs: reg}, trace.Machine{Name: "t", Cores: 2}, 0, never)
	if err != nil {
		t.Fatal(err)
	}
	if n := smallCatalog.NumFiles * smallCatalog.RecordsPerFile; snap.Run.Samples < n/2 {
		t.Errorf("a trace of %d elements at 1 ms each took %d samples, want about one a run of one element", n, snap.Run.Samples)
	}
}

// TestExpensiveMapScalesWithWorkers: at 1 ms/element two map workers must
// finish the 200-record catalog at least 1.7x sooner than one. With fixed
// 64-element handoffs they split it 128 : 72 and reach 1.56x.
func TestExpensiveMapScalesWithWorkers(t *testing.T) {
	ok, detail := bestOf(func() (bool, string) {
		_, two := slowMapDrain(t, 2, false)
		_, one := slowMapDrain(t, 1, false)
		return float64(one)/float64(two) >= 1.7, fmt.Sprintf("one worker %v, two workers %v", one, two)
	})
	if !ok {
		t.Fatalf("two workers did not reach 1.7x one worker's rate: %s", detail)
	}
}

// TestFirstMinibatchTakesOneBatchOfWork: at 1 ms/element and batch 16 the
// first minibatch must reach the consumer within two batches' work of the
// first Next — 2 x 16 x the per-element time this same drain averaged, which
// under the race detector or next to spinning neighbours is some way above
// the nominal millisecond — whether the map runs inline or on two workers.
// A 64-element run or handoff holds it back for four.
func TestFirstMinibatchTakesOneBatchOfWork(t *testing.T) {
	records := time.Duration(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	for _, par := range []int{1, 2} {
		ok, detail := bestOf(func() (bool, string) {
			first, total := slowMapDrain(t, par, true)
			bound := 2 * 16 * total / records
			return first <= bound, fmt.Sprintf("%v, want <= %v", first, bound)
		})
		if !ok {
			t.Fatalf("par=%d: first minibatch after %s", par, detail)
		}
	}
}

// TestBusyWorkerYieldsAfterAQuantum: on one P, two workers that burn 1 ms an
// element with their whole input in hand and room on their edges never
// block. Each gives the P up after each handoff all the same, so the
// consumer takes an element about every element time. Left to the scheduler's own preemption
// (sysmon, after 10-20 ms) the consumer took them a dozen at a time — and a
// trace's settle rule read those lumps as a rate still moving. The bound is
// five element times, as this drain measured them (its mean gap): a host
// that slows the worker slows the element with it, and a dozen-element lump
// is still over twice the bound.
func TestBusyWorkerYieldsAfterAQuantum(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := costedRegistry(t, time.Millisecond, false)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 1).
		Named("work").Map("costly", 2).
		MustBuild()
	ok, detail := bestOf(func() (bool, string) {
		fs, _ := testSetup(t)
		p, err := New(g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.depth = 1024 // room on every edge: nothing blocks the worker
		const n = 60
		var first, last time.Time
		var worst time.Duration
		for k := 0; k < n; k++ {
			e, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			p.Recycle(e)
			now := time.Now()
			if k == 0 {
				first = now
			} else {
				worst = max(worst, now.Sub(last))
			}
			last = now
		}
		element := last.Sub(first) / (n - 1)
		return worst < 5*element, fmt.Sprintf("%v, want < 5 element times of %v", worst, element)
	})
	if !ok {
		t.Errorf("the consumer waited %s for an element of a 1 ms stage", detail)
	}
}
