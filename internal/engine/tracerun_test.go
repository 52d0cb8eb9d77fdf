package engine

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/simfs"
	"plumber/internal/trace"
)

// stream builds a progress stream of unit arrivals — root completions, or
// examples handed over one at a time: each gap(k) after the one before.
func stream(n int, gap func(k int) time.Duration) []trace.Sample {
	return lumps(n, func(k int) (time.Duration, int64) { return gap(k), 1 })
}

// lumps builds a progress stream of n arrivals: arrival k comes gap after the
// one before and brings size units. As the tap does, a sample counts what had
// arrived before it.
func lumps(n int, arrival func(k int) (gap time.Duration, size int64)) []trace.Sample {
	out := make([]trace.Sample, n)
	t, total := 7*time.Millisecond, int64(0) // start-up: the rule must not care
	for k := range out {
		gap, size := arrival(k)
		t += gap
		out[k] = trace.Sample{At: t, N: total}
		total += size
	}
	return out
}

// firstSettled returns the shortest prefix of s the rule settles on.
func firstSettled(s []trace.Sample) (n int, rate float64) {
	for n = 1; n <= len(s); n++ {
		if r, ok := Settled(s[:n]); ok {
			return n, r
		}
	}
	return 0, 0
}

// TestSettleRule pins the stop rule as a function of the stream alone: no
// clock is read and nothing sleeps.
func TestSettleRule(t *testing.T) {
	const ms = time.Millisecond
	steady := func(gap time.Duration) func(int) time.Duration {
		return func(int) time.Duration { return gap }
	}
	// warmedUp is the prefix length at which a stream gap apart first has
	// the warm-up and both halves of the early window behind it.
	warmedUp := func(gap time.Duration) int {
		return int((settleWarmup+gap-1)/gap+2*settleMinHalf/gap) + 1
	}
	// slowStart is k samples gap apart, then one a millisecond.
	slowStart := func(k int, gap time.Duration) []trace.Sample {
		return stream(400, func(i int) time.Duration {
			if i < k {
				return gap
			}
			return ms
		})
	}
	// The fewest samples any window settles on: one before it, four a half.
	const fewest = 1 + 2*settleMinPerHalf
	for _, tc := range []struct {
		name string
		s    []trace.Sample
		// at is the prefix length the rule must first settle on (0: never),
		// or with atLeast set a lower bound on it; rate is what it must read,
		// within tol (5 % when 0).
		at      int
		atLeast bool
		rate    float64
		tol     float64
	}{
		// The first sample is warm-up; 4 + 4 after it are the fewest whose
		// halves hold four each.
		{name: "16 ms apart settles at the minimum count", s: stream(60, steady(16*ms)), at: fewest, rate: 62.5},
		// 2 ms apart the count is there long before warm-up and window are.
		{name: "2 ms apart settles after warm-up and window", s: stream(200, steady(2*ms)), at: warmedUp(2 * ms), rate: 500},
		// What the batch of a 1 ms decode is handed: warm-up and window
		// decide, two and a bit minibatches in, where their completions
		// needed twelve.
		{name: "examples 1 ms apart settle after warm-up and window", s: stream(400, steady(ms)), at: warmedUp(ms), rate: 1000},
		// A cheap stage hands over full chunks: the sample is the chunk.
		{name: "lumps of 64 every 1 ms", s: lumps(400, func(int) (time.Duration, int64) { return ms, 64 }), at: warmedUp(ms), rate: 64000},
		// However dense the stream, the early window still needs its span.
		{name: "a 10 µs stream still waits warm-up plus window", s: stream(4000, steady(10*time.Microsecond)), at: warmedUp(10 * time.Microsecond), rate: 100000},
		{name: "a fifth of jitter still settles", s: stream(60, func(k int) time.Duration { return 16*ms + time.Duration(k%3-1)*3*ms }), at: fewest, atLeast: true, rate: 62.5},
		// 100 free completions (a token bucket's burst), then the device's
		// pace: no estimate may come from a window the burst is still in.
		{name: "burst then steady", s: stream(300, func(k int) time.Duration {
			if k < 100 {
				return 50 * time.Microsecond
			}
			return 16 * ms
		}), at: 100 + 8, atLeast: true, rate: 62.5},
		// The same bucket seen from the batch: twenty full chunks free, 100 µs
		// apart, then a record a millisecond.
		{name: "a burst of chunks, then the throttled pace", s: lumps(600, func(k int) (time.Duration, int64) {
			if k < 20 {
				return 100 * time.Microsecond, 64
			}
			return ms, 1
		}), at: 20 + 2*settleMinPerHalf, atLeast: true, rate: 1000},
		// A slow start longer than the warm-up is inside the early window,
		// whose halves must then agree within half the tolerance outright:
		// the rule waits until the start no longer moves the rate, or for
		// the window that drops the first third. Read under the plain test,
		// 4 samples 4 ms apart made 941/s.
		{name: "a slow start of 2 samples 4 ms apart", s: slowStart(2, 4*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		{name: "a slow start of 3 samples 4 ms apart", s: slowStart(3, 4*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		{name: "a slow start of 4 samples 4 ms apart", s: slowStart(4, 4*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		{name: "a slow start of 5 samples 4 ms apart", s: slowStart(5, 4*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		{name: "a slow start of 5 samples 2 ms apart", s: slowStart(5, 2*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		{name: "a slow start of 10 samples 2 ms apart", s: slowStart(10, 2*ms), at: fewest, atLeast: true, rate: 1000, tol: 0.02},
		// A step inside the early window splits its halves: the rate read is
		// the one after the step.
		{name: "the rate halves 20 ms in", s: stream(400, func(k int) time.Duration {
			if k < 20 {
				return ms
			}
			return 2 * ms
		}), at: fewest, atLeast: true, rate: 500},
		// A 64-element handoff of a 1 ms source under batches of 16: a rate
		// read off two or three lumps is whatever the window's edges make
		// it. Over eight of them the slope is the rate.
		{name: "lumps of four settle late", s: stream(400, func(k int) time.Duration {
			if k%4 == 0 {
				return 64 * ms
			}
			return 10 * time.Microsecond
		}), at: 34, atLeast: true, rate: 62.5},
		// Two outer-parallel replicas, each handed 8 examples every 8 ms, the
		// second 3 ms after the first: one pooled stream, gaps 3, 5, 3, 5.
		{name: "two replicas' interleaved lumps", s: lumps(400, func(k int) (time.Duration, int64) {
			if k%2 == 0 {
				return 5 * ms, 8
			}
			return 3 * ms, 8
		}), at: 11, atLeast: true, rate: 2000},
		{name: "a stream that keeps slowing never settles", s: stream(600, func(k int) time.Duration {
			return time.Duration(float64(ms) * math.Pow(1.02, float64(k)))
		})},
		{name: "seven completions are too few", s: stream(7, steady(200*ms))},
		// Thirty samples over 30 ms, then eight that share the instant 30 ms
		// later: the last half has no extent in time, its slope is 0/0, and
		// every comparison with it must come out "not yet".
		{name: "a half at one instant settles nothing", s: lumps(38, func(k int) (time.Duration, int64) {
			switch {
			case k < 30:
				return ms, 1
			case k == 30:
				return 30 * ms, 1
			}
			return 0, 1
		})},
	} {
		tol := tc.tol
		if tol == 0 {
			tol = 0.05
		}
		n, rate := firstSettled(tc.s)
		switch {
		case tc.at == 0 && n != 0:
			t.Errorf("%s: settled after %d samples on %.1f/s, want never (the trace runs to EOF)", tc.name, n, rate)
		case tc.at != 0 && (n == 0 || n < tc.at || !tc.atLeast && n != tc.at):
			t.Errorf("%s: settled after %d samples, want %d (at least: %v)", tc.name, n, tc.at, tc.atLeast)
		case tc.at != 0 && math.Abs(rate-tc.rate) > tol*tc.rate:
			t.Errorf("%s: settled on %.2f/s, want %.2f within %.0f %%", tc.name, rate, tc.rate, 100*tol)
		}
	}
}

// slowCatalog is read at 1 ms a record through slowFS: 1 000-byte records
// behind a 1 MB/s device. Its 512 records are half a second of reading.
var slowCatalog = data.Catalog{
	Name: "engine-test-slow", NumFiles: 4, RecordsPerFile: 128, MeanRecordBytes: 984,
	RecordBytesStddevFrac: 0.01, DecodeAmplification: 1,
}

var registerSlowOnce sync.Once

// slowFS serves slowCatalog from a throttled device whose token bucket has
// already handed out its burst, so the first record costs what the last does.
func slowFS(t *testing.T) connector.Connector {
	t.Helper()
	testSetup(t)
	registerSlowOnce.Do(func() {
		if err := data.RegisterCatalog(slowCatalog); err != nil {
			panic(err)
		}
	})
	fs := simfs.New(simfs.Device{Name: "slow", TotalBandwidth: 1e6, PerStreamBandwidth: 1e6}, true)
	fs.AddCatalog(slowCatalog, 7)
	// The bucket starts with a quarter second of bandwidth: two shards' worth.
	for _, path := range fs.List()[:2] {
		r, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return connector.FromSimFS(fs)
}

// TestCloseLatencyWithRoomOnEveryEdge: a pipeline whose sends never block —
// deep edges, no shared pool — must still stop when it is closed. Workers
// used to learn of a closed latch only from a blocked send, so Close after
// the third minibatch waited for the source to read the rest of the epoch
// (here ~460 ms). The chain reads storage views with the no-op map; with a
// Body in its place the source reads into pooled buffers. The map runs
// inline and on two workers.
func TestCloseLatencyWithRoomOnEveryEdge(t *testing.T) {
	reg := costedRegistry(t, 0, false)
	for _, work := range []string{"noop", "costly"} {
		for _, par := range []int{1, 2} {
			g := pipeline.NewBuilder().
				Named("src").Interleave(slowCatalog.Name, 1).
				Named("work").Map(work, par).
				Batch(16).
				MustBuild()
			for _, kind := range []HandoffKind{HandoffRing, HandoffChannel} {
				label := fmt.Sprintf("%s par=%d/%s", work, par, kind)
				ok, detail := bestOf(func() (bool, string) {
					p, err := New(g, Options{FS: slowFS(t), UDFs: reg, Handoff: kind})
					if err != nil {
						t.Fatal(err)
					}
					p.depth = 1024 // workers start at the first pull
					if n, _, err := p.Drain(3); err != nil || n != 3 {
						t.Fatalf("%s: drained %d minibatches: %v", label, n, err)
					}
					start := time.Now()
					if err := p.Close(); err != nil {
						t.Fatal(err)
					}
					took := time.Since(start)
					return took < 20*time.Millisecond, took.String()
				})
				if !ok {
					t.Errorf("%s: Close after the third minibatch took %s, want < 20ms", label, detail)
				}
			}
		}
	}
}

// TestCanceledFillCommitsNoCache: a cache whose fill is cut — by Cancel, or
// by a Close that winds the stages below it down through their latches —
// holds a prefix, and must not be left in a shared store as a whole epoch.
func TestCanceledFillCommitsNoCache(t *testing.T) {
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(testCatalog.Name, 2).
		Named("work").Map("noop", 2).
		Batch(8).
		Named("hot").Cache().
		Prefetch(4).
		MustBuild()
	records := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	for _, how := range []string{"cancel", "close", "close pooled"} {
		store := NewCacheStore()
		opts := Options{FS: fs, UDFs: reg, Caches: store, ChunkSize: 4}
		if how == "close pooled" {
			opts.Pool, opts.PoolTenant = NewSharedPool(2), "t"
			if err := opts.Pool.Admit("t", 2); err != nil {
				t.Fatal(err)
			}
		}
		p, err := New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Drain(2); err != nil {
			t.Fatal(err)
		}
		if how == "cancel" {
			p.Cancel()
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		store.mu.Lock()
		for key, e := range store.entries {
			if e.complete {
				t.Errorf("%s: entry %q holds %d of %d minibatches and is marked complete", how, key, len(e.elems), records/8)
			}
		}
		store.mu.Unlock()
		// The next pipeline on the store fills from scratch and delivers all.
		opts.Pool = nil
		again, err := New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, examples, err := again.Drain(0); err != nil || examples != records {
			t.Errorf("%s: the next drain through the store delivered %d examples (%v), want %d", how, examples, err, records)
		}
		again.Close()
	}
}

// fakeClock is a chunkEmitter clock the test advances by hand.
type fakeClock struct{ now time.Time }

func (c *fakeClock) read() time.Time { return c.now }

// heldLog is a stage edge that records, for every element sent, how long the
// emitter held it: the fake clock at the send minus the clock when the
// element was added.
type heldLog struct {
	handoff
	clock *fakeClock
	born  []time.Time
	held  []time.Duration
	sizes []int
}

func (l *heldLog) trySend(w int, c []item) bool {
	for range c {
		l.held = append(l.held, l.clock.now.Sub(l.born[len(l.held)]))
	}
	l.sizes = append(l.sizes, len(c))
	return true
}

// emitPaced runs n elements through a time-sized emitter on a fake clock;
// element k takes cost(k) to produce. It returns the edge's log.
func emitPaced(n int, cost func(k int) time.Duration) *heldLog {
	clk := &fakeClock{now: time.Unix(0, 0)}
	l := &heldLog{clock: clk}
	p := &Pipeline{opts: Options{ChunkSize: 64}}
	em := p.emitter(l, 0, nil, &slot{})
	em.clock = clk.read
	for k := 0; k < n; k++ {
		em.ready()
		clk.now = clk.now.Add(cost(k))
		l.born = append(l.born, clk.now)
		em.add(item{})
	}
	em.flush()
	return l
}

func longest(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// TestChunkAgeBound: a chunk is sized by the pace it was measured at and
// re-examined whenever its fill doubles, so an emitter never sits on an
// element for long after the pace drops. At a steady pace no element waits
// more than two quanta and the element being produced; when the pace drops
// mid-chunk, the wait is bounded by the chunk's fill at that moment — what a
// doubling schedule can promise — and the chunk after it is sized right.
// Before, a chunk was only looked at when full: a source sized to 64 in its
// device's burst held its first throttled records for 63 ms.
func TestChunkAgeBound(t *testing.T) {
	const q = handoffQuantum
	for _, per := range []time.Duration{q / 200, q / 20, q / 3, q, 3 * q} {
		l := emitPaced(400, func(int) time.Duration { return per })
		if got, bound := longest(l.held), 2*q+per; got > bound {
			t.Errorf("%v a element: an element was held %v, want <= %v (chunks %v)", per, got, bound, l.sizes)
		}
	}
	// A fast stage keeps full-size chunks: the age check must not cut them.
	if l := emitPaced(1+10*64, func(int) time.Duration { return q / 200 }); fmt.Sprint(l.sizes[1:]) != fmt.Sprint([]int{64, 64, 64, 64, 64, 64, 64, 64, 64, 64}) {
		t.Errorf("5 µs an element: chunks %v, want one probe and ten of 64", l.sizes)
	}
	// free elements of a burst, then 1 ms each. The chunk in hand when the
	// burst ends holds fill elements; every later one is sized to the pace.
	for _, tc := range []struct{ free, fill int }{{1, 0}, {2, 1}, {3, 2}, {9, 8}, {100, 35}} {
		l := emitPaced(tc.free+200, func(k int) time.Duration {
			if k < tc.free {
				return 0
			}
			return q
		})
		bound := max(2*q, time.Duration(tc.fill)*q) + q
		if got := longest(l.held); got > bound {
			t.Errorf("%d free elements then 1 ms each: an element was held %v, want <= %v (chunks %v)", tc.free, got, bound, l.sizes)
		}
		if got := longest(l.held[tc.free+64:]); got > 3*q {
			t.Errorf("%d free elements then 1 ms each: %v held long after the pace dropped (chunks %v)", tc.free, got, l.sizes)
		}
	}
}

// TestBoundedTraceRun drives TraceRun itself on the throttled source. Live,
// under a cap of two minibatches: a rule that has not fired leaves the
// stream it was shown in the snapshot, and no rule leaves none; max stays a
// hard cap under a rule, and every file is recorded at its size. Replayed:
// a whole pass under a rule that never fires keeps the whole stream; the
// settle rule stops well short of the epoch, reads the device's pace and
// closes within a few records' time; and two outer-parallel replicas pool
// one stream at the device's pace.
func TestBoundedTraceRun(t *testing.T) {
	_, reg := testSetup(t)
	g := slowChain()
	total := int64(slowCatalog.NumFiles * slowCatalog.RecordsPerFile / 16)
	traceRun := func(g *pipeline.Graph, max int64, stop StopRule) (*trace.Snapshot, error) {
		return TraceRun(g, Options{FS: slowFS(t), UDFs: reg}, trace.Machine{Name: "t", Cores: 2}, max, stop)
	}
	for name, stop := range map[string]StopRule{"a rule that never fires": never, "no rule": nil} {
		snap, err := traceRun(g, 2, stop)
		if err != nil {
			t.Fatal(err)
		}
		r, root := snap.Run, snap.Nodes["batch"].ElementsProduced
		if root != 2 || r.RootCompletions != 2 || r.Settled || r.Samples != len(snap.Progress) || (stop == nil) != (r.Samples == 0) {
			t.Errorf("%s, capped at 2: the batch made %d minibatches, run %+v over a stream of %d samples", name, root, *r, len(snap.Progress))
		}
		if len(snap.Files) == 0 || snap.TotalFiles != slowCatalog.NumFiles || snap.SourceFiles["src"] != slowCatalog.NumFiles {
			t.Errorf("snapshot files %v of %d (%v)", snap.Files, snap.TotalFiles, snap.SourceFiles)
		}
		for path, size := range snap.Files {
			if want, _ := slowFSSize(t, path); size != want {
				t.Errorf("%s recorded as %d bytes, the file has %d", path, size, want)
			}
		}
	}
	for _, name := range []string{"slow-1", "slow-2"} {
		snap := recorded(t, name, func() (*trace.Snapshot, error) { return traceRun(g, 0, never) })
		if r := snap.Run; r.RootCompletions != total || r.Settled || r.Samples < int(total) {
			t.Errorf("%s, a rule that never fires: run %+v, want the epoch's %d minibatches", name, *r, total)
		}
		// Two minibatches, 32 ms of records, end before warm-up and window have passed.
		two := sort.Search(len(snap.Progress), func(k int) bool { return snap.Progress[k].N >= 32 })
		if n, rate := askedAsTheTapAsks(Settled, snap.Progress[:two]); n != 0 {
			t.Errorf("%s: the settle rule fired within two minibatches, at sample %d on %.1f/s", name, n, rate)
		}
	}
	// 16 records of 1 000 framed bytes at 1 MB/s: 62.5 minibatches/s. The
	// rule read it off the records the batch was handed — more than the
	// eight samples its halves need, and more of them than minibatches.
	snap := recorded(t, "slow-settled", func() (*trace.Snapshot, error) { return traceRun(g, 0, Settled) })
	c0, _ := snap.Completions()
	r, root, rate := snap.Run, snap.Nodes["batch"].ElementsProduced, c0/snap.Duration.Seconds()
	limit := time.Duration(root)*16*time.Millisecond + 100*time.Millisecond
	if !r.Settled || r.Samples <= 2*settleMinPerHalf || int64(r.Samples) <= r.RootCompletions || r.RootCompletions > root ||
		root > 2*total/3 || math.Abs(rate-62.5) > 6.25 || r.Seconds > limit.Seconds() {
		t.Errorf("settle rule: %d of %d minibatches in %.3fs, X_0 = %.1f/s, run %+v; want a prefix of the epoch at the device's 62.5/s, dropped and not drained",
			root, total, r.Seconds, rate, *r)
	}
	// Two outer-parallel replicas, each batching on its own prefetch goroutine:
	// their taps append to one stream from two goroutines while they ask the
	// rule (the root package's replicas shape does so live, under -race), and
	// the device's one megabyte a second is what the pooled stream must read,
	// whichever replica got which share of it.
	g = pipeline.NewBuilder().
		Named("src").Interleave(slowCatalog.Name, 1).
		Named("batch").Batch(16).
		Named("ahead").Prefetch(4).
		MustBuild()
	g.OuterParallelism = 2
	snap = recorded(t, "slow-replicas-settled", func() (*trace.Snapshot, error) { return traceRun(g, 0, Settled) })
	c0, _ = snap.Completions()
	r, root, rate = snap.Run, snap.Nodes["ahead"].ElementsProduced, c0/snap.Duration.Seconds()
	if !r.Settled || int64(r.Samples) <= r.RootCompletions || root >= 2*total || math.Abs(rate-62.5) > 6.25 {
		t.Errorf("two replicas: %d of %d minibatches, X_0 = %.1f/s, run %+v; want one pooled stream at the device's 62.5/s", root, 2*total, rate, *r)
	}
}

// slowChain is the throttled chain the recorded slow streams come from.
func slowChain() *pipeline.Graph {
	return pipeline.NewBuilder().
		Named("src").Interleave(slowCatalog.Name, 1).
		Named("work").Map("noop", 1).
		Named("batch").Batch(16).
		MustBuild()
}

// slowFSSize stats a slowCatalog shard on a fresh filesystem.
func slowFSSize(t *testing.T, path string) (int64, error) {
	t.Helper()
	fs := simfs.New(simfs.Device{Name: "slow-stat"}, false)
	fs.AddCatalog(slowCatalog, 7)
	return fs.Stat(path)
}

// TestCutAtTheFiringLump: the rule is asked as the batch is handed its
// lumps, not after root completions, so a rule that fires between two of
// them ends the drain there. The cut is what the batch had pulled before
// the firing lump; the consumer counted the minibatches it took before it,
// not the partial one the canceled batch then delivers (which the collector
// does see); the stream is as long as it was at the fire; and the duration
// is the cut at the rule's rate.
func TestCutAtTheFiringLump(t *testing.T) {
	_, reg := testSetup(t)
	g := slowChain()
	var firedAt int
	var firedN int64
	// Past two and a half minibatches, at the first lump the rule is asked
	// about; it reads a round 1 000 examples a second.
	rule := func(s []trace.Sample) (float64, bool) {
		if last := s[len(s)-1]; last.N >= 40 && firedAt == 0 {
			firedAt, firedN = len(s), last.N
		}
		return 1000, firedAt != 0
	}
	snap, err := TraceRun(g, Options{FS: slowFS(t), UDFs: reg}, trace.Machine{Name: "t", Cores: 2}, 0, rule)
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Run
	if !r.Settled || r.Stage != "batch" || r.Cut != firedN || r.Samples != firedAt {
		t.Fatalf("run %+v; want it cut at the batch's sample %d, after %d examples", *r, firedAt, firedN)
	}
	if r.RootCompletions != firedN/16 {
		t.Errorf("the consumer counted %d minibatches, want the %d completed before %d examples", r.RootCompletions, firedN/16, firedN)
	}
	if got := snap.Nodes["batch"].ElementsProduced; got != r.RootCompletions+1 {
		t.Errorf("the batch produced %d minibatches, want the %d counted and the partial one it flushed", got, r.RootCompletions)
	}
	if c0, cut := snap.Completions(); !cut || c0 != float64(firedN)/16 {
		t.Errorf("C_0 = %v (cut %v), want %v", c0, cut, float64(firedN)/16)
	}
	if want := time.Duration(firedN) * time.Millisecond; snap.Duration != want {
		t.Errorf("duration %v, want the cut's %d examples at 1 000/s: %v", snap.Duration, firedN, want)
	}
}

// TestRootCompletionsFeedTheStream: with no batch on the walk down from the
// root — a bare chain, a Zip at the root — the root's completions are the
// stream, fed to the same place the tap feeds, pulls 1. Live, a rule that
// fires at the twelfth sample cuts at the twelfth completion the consumer
// counted. Replayed, the settle rule settles on the throttled device's pace
// there.
func TestRootCompletionsFeedTheStream(t *testing.T) {
	_, reg := testSetup(t)
	chain := func(src string) *pipeline.Builder {
		return pipeline.NewBuilder().Named(src).Interleave(slowCatalog.Name, 1).Named(src+"_work").Map("noop", 1)
	}
	for _, tc := range []struct {
		name string
		g    *pipeline.Graph
		rate float64 // root completions a second off the 1 MB/s device
	}{
		{"bare", chain("src").MustBuild(), 1000},
		{"zip", pipeline.ZipOf(chain("a").MustBuild(), chain("b").MustBuild()).MustBuild(), 500},
	} {
		traceRun := func(stop StopRule) (*trace.Snapshot, error) {
			return TraceRun(tc.g, Options{FS: slowFS(t), UDFs: reg}, trace.Machine{Name: "t", Cores: 2}, 0, stop)
		}
		snap, err := traceRun(func(s []trace.Sample) (float64, bool) { return 1000, len(s) >= 12 })
		if err != nil {
			t.Fatal(err)
		}
		if r := snap.Run; !r.Settled || r.Stage != "" || r.Cut != 12 || r.RootCompletions != 12 || r.Samples != 12 {
			t.Errorf("%s: a rule firing at the twelfth sample cut at %+v; want the twelfth root completion", tc.name, *r)
		}
		snap = recorded(t, "slow-"+tc.name+"-settled", func() (*trace.Snapshot, error) { return traceRun(Settled) })
		c0, _ := snap.Completions()
		r, rate := snap.Run, c0/snap.Duration.Seconds()
		if !r.Settled || r.Stage != "" || r.Cut != r.RootCompletions || int64(r.Samples) != r.RootCompletions || math.Abs(rate-tc.rate) > 0.1*tc.rate {
			t.Errorf("%s: run %+v, X_0 = %.1f/s; want it settled on its root completions at %.0f/s", tc.name, *r, rate, tc.rate)
		}
	}
}
