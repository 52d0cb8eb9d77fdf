package plumber

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/scenario"
	"plumber/internal/simfs"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// The vision shape of the benchmark: 6 shards of 80 records of 8 000 bytes,
// a decode that costs 1 ms a record and quadruples it, minibatches of 16 —
// 30 minibatches, 16 ms each untuned. The auxiliary catalog pairs each
// record with a second view of the same size: §A rescales the bytes of the
// files seen by one global m/n, which holds only among files of like size,
// and a cut trace sees a different number of files on each branch.
var (
	boundedCatalog = data.Catalog{
		Name: "bounded-vision", NumFiles: 6, RecordsPerFile: 80, MeanRecordBytes: 8000,
		RecordBytesStddevFrac: 0.004, DecodeAmplification: 4,
	}
	boundedAuxCatalog = data.Catalog{
		Name: "bounded-vision-aux", NumFiles: 6, RecordsPerFile: 80, MeanRecordBytes: 8000,
		RecordBytesStddevFrac: 0.004, DecodeAmplification: 1,
	}
	boundedOnce sync.Once
)

func boundedOptions(t *testing.T) Options {
	t.Helper()
	boundedOnce.Do(func() {
		for _, c := range []data.Catalog{boundedCatalog, boundedAuxCatalog} {
			if err := data.RegisterCatalog(c); err != nil {
				panic(err)
			}
		}
	})
	fs := connector.NewMem("bounded-mem")
	fs.AddCatalog(boundedCatalog, 1)
	fs.AddCatalog(boundedAuxCatalog, 1)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "bounded_decode", Cost: udf.Cost{CPUPerByte: 1.25e-7, SizeFactor: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(udf.UDF{Name: "bounded_half", Cost: udf.Cost{KeepFraction: 0.5}}); err != nil {
		t.Fatal(err)
	}
	return Options{Source: fs, UDFs: reg, Seed: 1, WorkScale: 1, Spin: true}
}

// boundedMain is src -> decode, the branch every graph below is built on.
func boundedMain() *pipeline.Builder {
	return pipeline.NewBuilder().
		Named("src").Interleave(boundedCatalog.Name, 1).
		Named("decode").Map("bounded_decode", 1)
}

func boundedGraph(t *testing.T, shape string) *pipeline.Graph {
	t.Helper()
	aux := func() *pipeline.Builder {
		return pipeline.NewBuilder().Named("aux").Interleave(boundedAuxCatalog.Name, 1)
	}
	b := boundedMain()
	switch shape {
	case "chain", "cached", "shuffled", "replicas":
	case "repeat": // the retune shape: a Repeat below the batch
		b = b.Named("epochs").Repeat(2)
	case "filter": // the batch pulls what the filter lets through
		b = b.Named("half").Filter("bounded_half")
	case "zip":
		b = pipeline.ZipOf(b.MustBuild(), aux().MustBuild())
	case "concat":
		b = pipeline.ConcatOf(b.MustBuild(), aux().MustBuild())
	case "bare": // no batch: the root's own completions are the finest stream
		return b.MustBuild()
	case "zip root", "concat root": // a batch on each branch, none above the combiner
		main, second := b.Named("batch").Batch(16).MustBuild(), aux().Named("aux_batch").Batch(16).MustBuild()
		if shape == "zip root" {
			return pipeline.ZipOf(main, second).MustBuild()
		}
		return pipeline.ConcatOf(main, second).MustBuild()
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	b = b.Named("batch").Batch(16)
	switch shape {
	case "cached": // the tuned vision shape; one epoch, so the whole pass is a fill too
		b = b.Named("hot").Cache().Named("ahead").Prefetch(4).Named("epochs").Repeat(1)
	case "shuffled":
		b = b.Named("mix").Shuffle(4)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if shape == "replicas" {
		g.OuterParallelism = 2
	}
	return g
}

func traceAnalysis(t *testing.T, g *pipeline.Graph, opts Options) *ops.Analysis {
	t.Helper()
	snap, err := Trace(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(snap, opts.UDFs)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// settledRate is X_0 as bounded traces of g read it, from cold caches unless
// opts carries a store: what a test holds a prediction against, now that
// Optimize traces nothing it plans. Other load on the host only ever lowers
// a wall-clock rate, so it is the best of up to three traces, stopping at the
// first to reach want.
func settledRate(t *testing.T, g *pipeline.Graph, opts Options, want float64) float64 {
	t.Helper()
	best := 0.0
	for trace := 0; trace < 3 && best < want; trace++ {
		snap, err := traceUntil(g, opts, engine.Settled)
		if err != nil {
			t.Fatal(err)
		}
		c0, _ := snap.Completions()
		best = math.Max(best, c0/snap.Duration.Seconds())
	}
	return best
}

// missUnlessHostBusy fails the test with a predicted-against-measured miss,
// unless the host explains it. A plan for two cores is traced on one worker
// and measured on two, so a neighbour holding the second core — this host's
// do, for seconds at a time — reads as a prediction twice too high, and no
// retry outlasts it. The control: two goroutines spin side by side for 30 ms,
// then one alone; the work ratio is the cores the host runs at once right now.
func missUnlessHostBusy(t *testing.T, format string, args ...any) {
	t.Helper()
	spin := func() (n float64) {
		for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); n++ {
		}
		return n
	}
	var a, b float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = spin() }()
	go func() { defer wg.Done(); b = spin() }()
	wg.Wait()
	if cores := (a + b) / spin(); cores < 1.5 {
		t.Skipf("unresolved, the host runs %.1f spinning goroutines at once: "+format, append([]any{cores}, args...)...)
	}
	t.Fatalf(format, args...)
}

// within reports |got - want| <= tol * |want|, with two infinities equal.
func within(got, want, tol float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return math.IsInf(want, 1) && math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestBoundedTraceAgreesWithWholePass: a trace cut after 5 of 30 minibatches
// must analyze to the whole pass's numbers. Every parallel stage runs ahead
// of the root by its edge's depth, and at the parent commit all of that
// counted as demand: the chain's source read V = 49 for 16, a disk cost
// three times too high and a dataset a quarter too small.
//
// And a trace cut by the settle rule must read the whole pass's X_0, from
// whichever stream the shape gives it: examples into the batch where the walk
// down from the root finds one (through a cache, a prefetch and a repeat;
// through a shuffle; with a filter, a repeat or a combiner below it; pooled
// over outer-parallel replicas), root completions where it does not.
func TestBoundedTraceAgreesWithWholePass(t *testing.T) {
	for _, tc := range []struct {
		shape string
		cut   bool // compare a trace cut at 5 minibatches, field by field
		stage bool // the settle rule reads the batch's stream, not the root's
		// like is the shape whose whole pass has the X_0 a prefix can know: a
		// Concat's prefix lies in its first branch, the chain.
		like string
	}{
		{shape: "chain", cut: true, stage: true}, {shape: "zip", cut: true, stage: true}, {shape: "repeat", cut: true, stage: true},
		{shape: "cached", stage: true}, {shape: "shuffled", stage: true}, {shape: "filter", stage: true}, {shape: "replicas", stage: true},
		{shape: "bare"}, {shape: "zip root"}, {shape: "concat root", like: "chain"},
	} {
		shape, opts := tc.shape, boundedOptions(t)
		g := boundedGraph(t, shape)
		ref := g
		if tc.like != "" {
			ref = boundedGraph(t, tc.like)
		}
		whole := traceAnalysis(t, ref, opts)
		// X_0 is a wall-clock rate on both sides, which other load on the host
		// only ever lowers: compare the best of up to eight attempts on each
		// side. A whole pass runs ten times as long as a settled trace, so a
		// neighbour that spins for seconds lowers every one of the first few
		// while a settled trace still finds a quiet 60 ms; more attempts
		// cannot make a rate read high, so a rule that overshoots still fails.
		bounded, pass := 0.0, whole.ObservedRate
		for attempt := 0; attempt < 8 && !within(bounded, pass, 0.10); attempt++ {
			if attempt > 0 {
				whole = traceAnalysis(t, ref, opts)
				pass = math.Max(pass, whole.ObservedRate)
			}
			snap, err := traceUntil(g, opts, engine.Settled)
			if err != nil {
				t.Fatal(err)
			}
			run := snap.RunCost()
			if !run.Settled || tc.stage != (int64(run.Samples) > run.RootCompletions) {
				t.Errorf("%s: the trace cost %+v; want it settled, on the batch's stream: %v", shape, run, tc.stage)
			}
			c0, _ := snap.Completions()
			bounded = math.Max(bounded, c0/snap.Duration.Seconds())
		}
		if !within(bounded, pass, 0.10) {
			t.Errorf("%s: settled traces read X_0 = %.2f, whole passes %.2f", shape, bounded, pass)
		}
		if !tc.cut {
			continue
		}
		opts.MaxMinibatches = 5
		cut := traceAnalysis(t, g, opts)
		if got := cut.Nodes[len(cut.Nodes)-1].Completions; got != 5 {
			t.Fatalf("%s: the bounded trace completed %d minibatches, want 5", shape, got)
		}
		if !within(cut.DatasetBytes, whole.DatasetBytes, 0.05) {
			t.Errorf("%s: DatasetBytes %.0f, whole pass %.0f", shape, cut.DatasetBytes, whole.DatasetBytes)
		}
		for i, w := range whole.Nodes {
			c := cut.Nodes[i]
			for _, f := range []struct {
				name      string
				got, want float64
				tol       float64
			}{
				{"VisitRatio", c.VisitRatio, w.VisitRatio, 0.02},
				{"Rate", c.Rate, w.Rate, 0.02},
				{"IOBytesPerMinibatch", c.IOBytesPerMinibatch, w.IOBytesPerMinibatch, 0.02},
				{"MaterializedBytes", c.MaterializedBytes, w.MaterializedBytes, 0.05},
			} {
				if !within(f.got, f.want, f.tol) {
					t.Errorf("%s: %s %s = %.6g, whole pass %.6g", shape, w.Name, f.name, f.got, f.want)
				}
			}
		}
	}
}

// TestSettledTraceAnalyzesAtTheCut: the settle rule cuts the vision shape's
// trace a few examples into its fourth minibatch, and the canceled batch
// then flushes what it holds. Read from the counters that leaves behind —
// four minibatches for some fifty examples — decode would be visited 12.5
// times a minibatch, not 16, and look a quarter cheaper than it is. Read at
// the cut, every stage's visit ratio and rate are the whole pass's.
func TestSettledTraceAnalyzesAtTheCut(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "chain")
	whole := traceAnalysis(t, g, opts)
	var detail string
	for attempt := 0; attempt < 3; attempt++ {
		snap, err := traceUntil(g, opts, engine.Settled)
		if err != nil {
			t.Fatal(err)
		}
		if run := snap.RunCost(); !run.Settled || run.Cut%16 == 0 {
			detail = fmt.Sprintf("the trace was not cut inside a minibatch: %+v", run)
			continue
		}
		an, err := Analyze(snap, opts.UDFs)
		if err != nil {
			t.Fatal(err)
		}
		detail = ""
		for i, w := range whole.Nodes {
			c := an.Nodes[i]
			if !within(c.VisitRatio, w.VisitRatio, 0.02) || !within(c.Rate, w.Rate, 0.02) {
				detail += fmt.Sprintf("; %s VisitRatio %.4g and Rate %.4g, whole pass %.4g and %.4g", w.Name, c.VisitRatio, c.Rate, w.VisitRatio, w.Rate)
			}
		}
		if detail == "" {
			return
		}
		t.Fatalf("a trace cut at %+v%s", snap.RunCost(), detail)
	}
	t.Skipf("unresolved: %s", detail)
}

// TestSettledTraceCostsASpanNotTwelveMinibatches: the vision shape's 1 ms
// examples show their rate after a few milliseconds of warm-up and two 17 ms
// halves; a rule shown only minibatches needed twelve of them (192 ms at 16
// an output, and with 80 an output the epoch's six were never enough), and a
// rule asked only at root completions ran on to the next one: at 240 an
// output, the epoch's second. Asked as the batch is handed its examples, the
// trace is cut where the rate settles, inside the first minibatch when it is
// large, so it costs start-up plus warm-up and window whatever the batch
// size — under 50 ms, which a rule that always drops the first third of a
// 50 ms span cannot be. Plan-first on traces that short still plans what
// whole passes plan. (80, not 64: a whole pass counts the epoch's last,
// partial minibatch as a completion, which reads 7 % high when there are
// seven and a half of them, and it is the reference here.)
func TestSettledTraceCostsASpanNotTwelveMinibatches(t *testing.T) {
	budget := Budget{Cores: 2, MemoryBytes: 256 << 20}
	for _, tc := range []struct {
		batch   int
		maxRoot int64
		limit   time.Duration
	}{
		{16, 6, 50 * time.Millisecond},
		{80, 1, 50 * time.Millisecond},
		{240, 0, 80 * time.Millisecond}, // two minibatches an epoch: asked at completions, a trace took ≥ 240 ms
	} {
		g := boundedMain().Named("batch").Batch(tc.batch).MustBuild()
		opts := boundedOptions(t)
		// Wall time and wall-clock rates, beside other spinning packages,
		// which only ever lower a rate: a trace that costs too much is
		// retried, and the predictions compared are the best of the attempts
		// on each side — a neighbour's burst inside a 34 ms window lowers a
		// settled trace's reading more than a whole pass's.
		var bounded, whole float64
		var cost string
		costs := false
		for attempt := 0; attempt < 5 && !(costs && within(bounded, whole, 0.05)); attempt++ {
			w := planFirst(t, g, budget, opts, nil)
			b := planFirst(t, g, budget, opts, engine.Settled)
			final, _ := json.Marshal(b.Final)
			wholeFinal, _ := json.Marshal(w.Final)
			if string(final) != string(wholeFinal) || b.Plan.CoresPlanned != w.Plan.CoresPlanned {
				t.Fatalf("batch %d: settled traces planned (%d cores)\n%s\nwhole passes planned (%d cores)\n%s",
					tc.batch, b.Plan.CoresPlanned, final, w.Plan.CoresPlanned, wholeFinal)
			}
			bounded = math.Max(bounded, b.PredictedMinibatchesPerSec)
			whole = math.Max(whole, w.PredictedMinibatchesPerSec)
			if run := b.Steps[0].Run; run.Settled && run.RootCompletions <= tc.maxRoot && run.Seconds <= tc.limit.Seconds() {
				costs = true
			} else if !costs {
				cost = fmt.Sprintf("%+v", run)
			}
		}
		if !costs {
			t.Errorf("batch %d: the planning trace cost %s; want it settled within %v and %d minibatches", tc.batch, cost, tc.limit, tc.maxRoot)
		}
		if !within(bounded, whole, 0.05) {
			t.Errorf("batch %d: settled traces predicted %.1f mb/s, whole passes %.1f; want them within 5 %%", tc.batch, bounded, whole)
		}
	}
}

// TestRecordProgressStreams writes two recordings of the progress stream of
// a whole traced pass of each of the bounded shapes below when
// PLUMBER_RECORD_PROGRESS is set, into the engine's testdata, where
// TestSettleRuleOnRecordedStreams replays them. A rule that never fires is
// shown the stream as it grows; what it was last shown is the recording —
// the whole pass, but for at most the last seventeenth the ask throttle
// leaves unseen.
func TestRecordProgressStreams(t *testing.T) {
	if os.Getenv("PLUMBER_RECORD_PROGRESS") == "" {
		t.Skip("set PLUMBER_RECORD_PROGRESS=1 to record")
	}
	for _, shape := range []string{"chain", "replicas", "filter", "zip", "repeat"} {
		for k := 1; k <= 2; k++ {
			var seen []engine.Sample
			record := func(s []engine.Sample) (float64, bool) {
				seen = append(seen[:0], s...)
				return 0, false
			}
			if _, err := traceUntil(boundedGraph(t, shape), boundedOptions(t), record); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, x := range seen {
				fmt.Fprintf(&b, "%d %d\n", x.At.Nanoseconds(), x.N)
			}
			path := filepath.Join("internal", "engine", "testdata", "progress", fmt.Sprintf("%s-%d.txt", shape, k))
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d samples over %v", path, len(seen), seen[len(seen)-1].At-seen[0].At)
		}
	}
}

// TestOptimizeTracesOnce: on the vision shape plan-first is one settled
// trace and the arithmetic on it — Optimize returns within a few milliseconds
// of the trace ending, having built no second pipeline — and the program it
// returns is the one it returned when it traced that program before handing
// it over: decode at 2, a cache above the batch, prefetch(8) at the root, one
// replica. The rate it predicts for it is the rate a trace of it then reads.
func TestOptimizeTracesOnce(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "chain")
	want, _ := json.Marshal(pipeline.NewBuilder().
		Named("src").Interleave(boundedCatalog.Name, 1).
		Named("decode").Map("bounded_decode", 2).
		Named("batch").Batch(16).
		Named("plumber_cache").Cache().
		Named("plumber_prefetch").Prefetch(8).MustBuild())
	// Wall time and wall-clock rates, beside other spinning packages: a miss
	// is retried.
	var detail string
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		res, err := Optimize(g, Budget{Cores: 2, MemoryBytes: 256 << 20}, opts)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.TracesUsed != 1 || len(res.Steps) != 1 {
			t.Fatalf("plan-first took %d traces over %d steps, want 1 and 1", res.TracesUsed, len(res.Steps))
		}
		if got, _ := json.Marshal(res.Final); string(got) != string(want) {
			t.Fatalf("one trace planned\n%s\nwant\n%s", got, want)
		}
		measured := settledRate(t, res.Final, opts, res.PredictedMinibatchesPerSec)
		run := res.Steps[0].Run
		if run.Settled && wall.Seconds() <= run.Seconds+0.015 && within(measured, res.PredictedMinibatchesPerSec, 0.25) {
			detail = ""
			break
		}
		detail = fmt.Sprintf("took %v around a trace of %+v and predicted %.1f mb/s for a program then traced at %.1f",
			wall, run, res.PredictedMinibatchesPerSec, measured)
	}
	if detail != "" {
		missUnlessHostBusy(t, "Optimize %s; want it back within 15 ms of a settled trace, and the prediction within 25 %%", detail)
	}
}

// TestPredictionUsesSchedulableCores: with Spin the modeled CPU is burned by
// goroutines, and only GOMAXPROCS of them run at once. A trace at GOMAXPROCS
// 1 records one schedulable core, and from that snapshot a two-core budget
// buys nothing a one-core budget does not, so the vision chain's prediction
// must be the one-core one. Capped at the host's cores alone, it read 123
// minibatches/s where one P delivers 62. Without Spin the modeled CPU is
// only accounted: the snapshot records no schedulable cores, and the
// prediction is at the budget's.
func TestPredictionUsesSchedulableCores(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "chain")
	prev := runtime.GOMAXPROCS(1)
	snap, err := traceUntil(g, opts, engine.Settled)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Machine.SchedulableCores; got != 1 {
		t.Fatalf("a trace at GOMAXPROCS 1 recorded %d schedulable cores, want 1", got)
	}
	planAt := func(snap *trace.Snapshot, cores int) *Result {
		res, err := Plan(snap, opts.UDFs, Budget{Cores: cores, MemoryBytes: 256 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two := planAt(snap, 2).PredictedMinibatchesPerSec
	if one := planAt(snap, 1).PredictedMinibatchesPerSec; !within(two, one, 0.10) {
		t.Errorf("at GOMAXPROCS 1 a two-core budget predicted %.1f mb/s, a one-core budget %.1f; want them within 10 %%", two, one)
	}
	// The recorded core is in the snapshot's file, not only in memory.
	saved, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.UnmarshalSnapshot(saved)
	if err != nil {
		t.Fatal(err)
	}
	if got := planAt(back, 2).PredictedMinibatchesPerSec; got != two {
		t.Errorf("the snapshot read back predicted %.1f mb/s at two cores, the one in memory %.1f", got, two)
	}

	opts.Spin = false
	snap, err = traceUntil(g, opts, engine.Settled)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Machine.SchedulableCores; got != 0 {
		t.Fatalf("a trace that burned no CPU recorded %d schedulable cores, want 0", got)
	}
	an, err := Analyze(snap, opts.UDFs)
	if err != nil {
		t.Fatal(err)
	}
	// Four cores, more than this host may schedule: an accounted trace is
	// no reading of the host's.
	res := planAt(snap, 4)
	if want := stats.FiniteOrZero(an.PredictObservedRate(res.Plan.Hypothetical(false, 4, 0))); res.PredictedMinibatchesPerSec != want {
		t.Errorf("without Spin a four-core budget predicted %.1f mb/s, want the four-core rate %.1f", res.PredictedMinibatchesPerSec, want)
	}
}

// TestBurstTracePrediction: the retune shape of the benchmark on a device
// nobody has read from yet — 16 MB/s, and simfs's bucket starts with a
// quarter second of that, 4 MB, to give away. The planning trace settles in
// 55 ms having read at four times the bandwidth the budget declares, and at
// the parent commit that factor was the calibration: 2 300 minibatches/s
// predicted of a device good for 500. The prediction must stay at the
// declared disk bound, and be what the planned program sustains once the
// allowance is spent: its second epoch, the first being 4.1 MB.
func TestBurstTracePrediction(t *testing.T) {
	cat := data.Catalog{
		Name: "bounded-burst", NumFiles: 8, RecordsPerFile: 256, MeanRecordBytes: 2000,
		RecordBytesStddevFrac: 0.004, DecodeAmplification: 1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "burst_decode", Cost: udf.Cost{CPUPerElement: 20e-6, SizeFactor: 1}}); err != nil {
		t.Fatal(err)
	}
	g := pipeline.NewBuilder().
		Named("src").Interleave(cat.Name, 1).
		Named("decode").Map("burst_decode", 1).
		Named("epochs").Repeat(2).
		Named("batch").Batch(16).MustBuild()
	dev := simfs.Device{Name: "bounded-burst", TotalBandwidth: 16e6, PerStreamBandwidth: 4e6}
	budget := Budget{Cores: 2, MemoryBytes: 1 << 20, DiskBandwidth: dev.TotalBandwidth}

	// What the declared bandwidth is worth, from a pass that never waits.
	twin := connector.NewMem("bounded-burst-twin")
	twin.AddCatalog(cat, 1)
	diskBound := traceAnalysis(t, g, Options{Source: twin, UDFs: reg, Seed: 1}).Ceiling(ops.Hypothetical{DiskBandwidth: dev.TotalBandwidth}).Storage

	fs := connector.FromSimFS(simfs.New(dev, true))
	fs.AddCatalog(cat, 1)
	opts := Options{Source: fs, UDFs: reg, Seed: 1, WorkScale: 1, Spin: true}
	res, err := Optimize(g, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	if traced := res.Steps[0].ObservedMinibatchesPerSec; traced < 2*diskBound {
		t.Skipf("the planning trace read %.0f minibatches/s of a device good for %.0f: no burst, nothing to show", traced, diskBound)
	}
	if res.PredictedMinibatchesPerSec > 1.05*diskBound {
		t.Fatalf("predicted %.0f minibatches/s under a declared bandwidth worth %.0f (the trace read %.0f, inside the device's burst)",
			res.PredictedMinibatchesPerSec, diskBound, res.Steps[0].ObservedMinibatchesPerSec)
	}

	// Other load on the host only ever lowers the rate, and the bucket keeps
	// it from rising: the best of a few drains, stopping at the first that
	// agrees.
	epoch := int64(cat.NumFiles*cat.RecordsPerFile) / 16
	sustained := 0.0
	for attempt := 0; attempt < 3 && !within(res.PredictedMinibatchesPerSec, sustained, 0.12); attempt++ {
		p, err := engine.New(res.Final, engine.Options{FS: opts.Source, UDFs: reg, Seed: 1, WorkScale: 1, Spin: true})
		if err != nil {
			t.Fatal(err)
		}
		if n, _, err := p.Drain(epoch); err != nil || n != epoch {
			t.Fatalf("first epoch: %d minibatches, %v", n, err)
		}
		start := time.Now()
		n, _, err := p.Drain(0)
		sustained = math.Max(sustained, float64(n)/time.Since(start).Seconds())
		p.Close()
		if err != nil || n != epoch {
			t.Fatalf("second epoch: %d minibatches, %v", n, err)
		}
	}
	if !within(res.PredictedMinibatchesPerSec, sustained, 0.12) {
		t.Fatalf("predicted %.0f minibatches/s, the planned program sustains %.0f", res.PredictedMinibatchesPerSec, sustained)
	}
}

// TestBoundedTraceOfConcatReadsTheBranchItSaw: a Concat is not stationary —
// a prefix inside its first branch says nothing of the second — so the bar
// is that the branch it did see is charged one element per element the
// Concat passed on, however far its source had run ahead, at the whole
// pass's cost per element.
func TestBoundedTraceOfConcatReadsTheBranchItSaw(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "concat")
	whole := traceAnalysis(t, g, opts)
	opts.MaxMinibatches = 5
	cut := traceAnalysis(t, g, opts)
	for _, name := range []string{"src", "decode"} {
		c, err := cut.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := whole.Node(name)
		if !within(c.VisitRatio, 16, 0.02) {
			t.Errorf("%s VisitRatio = %.4g inside the first branch, want the batch's 16", name, c.VisitRatio)
		}
		if !within(c.LocalRate, w.LocalRate, 0.02) {
			t.Errorf("%s LocalRate = %.6g, whole pass %.6g", name, c.LocalRate, w.LocalRate)
		}
	}
}

// planFirst plans as Optimize does, from one trace cut by the given stop
// rule.
func planFirst(t *testing.T, g *pipeline.Graph, budget Budget, opts Options, stop engine.StopRule) *Result {
	t.Helper()
	snap, err := traceUntil(g, opts, stop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Plan(snap, opts.UDFs, budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// countingSettled is engine.Settled, counting in *cut the traces it stopped.
func countingSettled(cut *int) engine.StopRule {
	return func(progress []engine.Sample) (float64, bool) {
		rate, ok := engine.Settled(progress)
		if ok {
			*cut++
		}
		return rate, ok
	}
}

// TestBoundedOptimizeMatchesWholePass: on the six canonical scenarios the
// program planned from traces that stop when the rate has settled is the one
// planned from whole passes — every knob, cache point and prefetch — and the
// two predictions are within 5 % (where the shards are alike: a prefix of
// skewed ones reads their rate, not the pass's). The modeled CPU is burned,
// twice over, so the traces take real time and those of the scenarios
// with 100 ms of work or more do settle.
//
// What each prediction is worth is read off a bounded trace of the planned
// program, taken here since Optimize takes none, and logged, not asserted:
// the budget is 4 cores and cold-storage declares a bandwidth its in-memory
// device does not enforce, so on a smaller host the miss says what the host
// lacks, not what the model does (TestOptimizeTracesOnce and
// TestOptimizePlanFirst assert it, on budgets the host can deliver).
func TestBoundedOptimizeMatchesWholePass(t *testing.T) {
	cut := 0
	counting := countingSettled(&cut)
	for _, spec := range scenario.Suite(false) {
		w, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Source: w.Source, UDFs: w.Registry, Seed: spec.Seed, WorkScale: 2, Spin: true}
		budget := Budget{Cores: 4, MemoryBytes: 64 << 20, DiskBandwidth: w.DiskBandwidth}
		// The predictions scale with the planning trace's wall-clock rate,
		// which other load on the host only ever lowers: compare the best of
		// up to eight attempts on each side, as many as a neighbour spinning
		// for seconds takes to leave the longer whole passes a quiet window.
		// If the whole passes do not repeat within the 5 % themselves, the
		// host cannot resolve the question.
		var bounded, whole float64
		var final *pipeline.Graph
		settled := false
		lowest := math.Inf(1)
		for attempt := 0; attempt < 8 && (attempt == 0 || !within(bounded, whole, 0.05)); attempt++ {
			b := planFirst(t, w.Graph, budget, opts, counting)
			f := planFirst(t, w.Graph, budget, opts, nil)
			bj, _ := json.Marshal(b.Final)
			fj, _ := json.Marshal(f.Final)
			if string(bj) != string(fj) {
				t.Fatalf("%s: bounded traces planned\n%s\nwhole passes planned\n%s", spec.Name, bj, fj)
			}
			bounded = math.Max(bounded, b.PredictedMinibatchesPerSec)
			whole = math.Max(whole, f.PredictedMinibatchesPerSec)
			lowest = math.Min(lowest, f.PredictedMinibatchesPerSec)
			final, settled = b.Final, settled || b.Steps[0].Run.Settled
		}
		t.Logf("%s: predicted %.1f mb/s, a bounded trace of the planned program read %.1f", spec.Name, bounded,
			settledRate(t, final, opts, bounded))
		switch {
		case within(bounded, whole, 0.05):
		case spec.FileSizeSkew > 0:
			// Shards of different record sizes, read one after another: the
			// rate of the first few is not the rate of the pass, and no
			// prefix can know. The plan, above, still has to be the same.
			t.Logf("%s: predicted %.1f mb/s from the shards a bounded trace saw, %.1f from all of them", spec.Name, bounded, whole)
		case !settled:
			// A pass too short for the rule to fire was traced whole on both
			// sides: two samples of one thing, and 12 ms of it is noise.
			t.Logf("%s: never settled — whole passes on both sides predicted %.1f and %.1f mb/s", spec.Name, bounded, whole)
		case !within(lowest, whole, 0.05):
			t.Logf("%s: unresolved — whole passes alone predicted %.1f to %.1f mb/s (bounded: %.1f)", spec.Name, lowest, whole, bounded)
		default:
			t.Errorf("%s: predicted %.1f mb/s from bounded traces, %.1f from whole passes", spec.Name, bounded, whole)
		}
	}
	if cut < 2 {
		t.Fatalf("only %d traces stopped before EOF: the comparison tested nothing", cut)
	}
}

// delivered is what one drain handed the consumer, in terms that do not
// depend on the order a parallel map finished its elements in.
type delivered struct {
	minibatches, examples int
	bytes, byteSum        uint64
}

// drain drains g to EOF through the store.
func drain(t *testing.T, g *pipeline.Graph, opts Options, store *engine.CacheStore) delivered {
	t.Helper()
	p, err := engine.New(g, engine.Options{FS: opts.Source, UDFs: opts.UDFs, Seed: opts.Seed, Caches: store})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var d delivered
	for {
		e, err := p.Next()
		if err == io.EOF {
			return d
		}
		if err != nil {
			t.Fatal(err)
		}
		d.minibatches++
		d.examples += e.Count
		d.bytes += uint64(len(e.Payload))
		for _, b := range e.Payload {
			d.byteSum += uint64(b)
		}
	}
}

// TestBoundedOptimizeLeavesNoPartialCache: plan-first traces a program that
// caches above the batch and cuts the trace a few of the thirty minibatches
// into the cache's fill. What that trace recorded must not be in the caller's
// store as an epoch — and with one core budgeted the chain below the cache is
// planned as it was traced, so an entry left there would be served: the next
// pass through the store has to fill the cache from the source and deliver
// everything, and only the pass after that is served from memory.
func TestBoundedOptimizeLeavesNoPartialCache(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "cached")
	var res *Result
	// On a host too loaded for a steady rate the trace runs to EOF and fills
	// the cache for good: that attempt shows nothing.
	for attempt, cut := 0, 0; cut < 1; attempt++ {
		if attempt == 3 {
			t.Skip("the planning trace never settled in 3 attempts")
		}
		opts.Caches = engine.NewCacheStore() // the caller's store, as Options.Caches
		res = planFirst(t, g, Budget{Cores: 1, MemoryBytes: 256 << 20}, opts, countingSettled(&cut))
	}
	if decode, err := res.Final.Node("decode"); err != nil || decode.EffectiveParallelism() != 1 {
		t.Fatalf("want the chain below the cache left as traced; got decode %+v (%v)", decode, err)
	}
	records := int64(boundedCatalog.NumFiles * boundedCatalog.RecordsPerFile)
	for pass, fromSource := range []int64{records, 0} {
		snap, err := Trace(res.Final, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Nodes["src"].ElementsProduced; got != fromSource {
			t.Fatalf("pass %d after Optimize read %d records from the source, want %d", pass+1, got, fromSource)
		}
		if got := snap.Nodes["batch"].ElementsProduced; pass == 0 && got != records/16 {
			t.Fatalf("pass 1 after Optimize batched %d minibatches, want %d", got, records/16)
		}
	}
	plain := opts
	plain.Spin, plain.WorkScale = false, 0
	if got, want := drain(t, res.Final, plain, opts.Caches), drain(t, g, plain, nil); got != want {
		t.Fatalf("the cache the first pass filled serves %+v, the untuned program delivers %+v", got, want)
	}
}
