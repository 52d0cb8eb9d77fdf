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
	"sync/atomic"
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
	return analysis(t, snap, opts.UDFs)
}

func analysis(t *testing.T, snap *trace.Snapshot, reg *udf.Registry) *ops.Analysis {
	t.Helper()
	an, err := Analyze(snap, reg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// snapshotDir is the corpus the replay tests read: snapshots of real traced
// drains, each with the progress stream its rule was shown. The engine's
// recorded_test.go says what is in it and how to regenerate it.
const snapshotDir = "internal/engine/testdata/snapshots"

var recordedOnce sync.Map // name -> struct{}: recorded by this process

// recorded returns the corpus snapshot name, of g traced under stop; with
// PLUMBER_RECORD_PROGRESS set, the process's first call for name traces it
// (take, when given, instead) and writes it. It must be a trace of g.
func recorded(t *testing.T, name string, g *pipeline.Graph, opts Options, stop engine.StopRule, take func() (*trace.Snapshot, error)) *trace.Snapshot {
	t.Helper()
	path := filepath.Join(snapshotDir, name+".json")
	if _, done := recordedOnce.LoadOrStore(name, struct{}{}); !done && os.Getenv("PLUMBER_RECORD_PROGRESS") != "" {
		if take == nil {
			take = func() (*trace.Snapshot, error) { return traceUntil(g, opts, stop) }
		}
		snap, err := take()
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := load(t, path)
	if got, want := jsonOf(snap.Graph), jsonOf(g); got != want {
		t.Fatalf("%s traced\n%s\nnot\n%s", path, got, want)
	}
	return snap
}

// load reads the snapshot file path.
func load(t *testing.T, path string) *trace.Snapshot {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := trace.UnmarshalSnapshot(b)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return snap
}

// jsonOf is v as JSON: how two programs, plans or results are compared. All
// three marshal, or the CLI could not print them.
func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// never is a rule that never fires: the drain runs to its end, and its
// snapshot keeps the whole stream.
func never([]trace.Sample) (float64, bool) { return 0, false }

// firesAt is a rule that fires at the stream's kth sample (k ≤ 16: it is
// asked at every one of those) on a round 1 000 a second: a cut that asks
// nothing of the host.
func firesAt(k int) engine.StopRule {
	return func(s []trace.Sample) (float64, bool) { return 1000, len(s) >= k }
}

// tracedX0 is X_0 as a snapshot reads it: C_0 over the duration.
func tracedX0(snap *trace.Snapshot) float64 {
	c0, _ := snap.Completions()
	return c0 / snap.Duration.Seconds()
}

// within reports |got - want| <= tol * |want|, with two infinities equal.
func within(got, want, tol float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return math.IsInf(want, 1) && math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// wholePasses returns the corpus's whole passes of a bounded shape: the two
// recordings, with the whole streams the settle rule is held to, of the
// shapes that have them, or one pass without a rule.
func wholePasses(t *testing.T, shape string, opts Options) []*trace.Snapshot {
	t.Helper()
	g, name := boundedGraph(t, shape), strings.ReplaceAll(shape, " ", "-")
	switch shape {
	case "chain", "replicas", "filter", "zip", "repeat":
		return []*trace.Snapshot{recorded(t, name+"-1", g, opts, never, nil), recorded(t, name+"-2", g, opts, never, nil)}
	}
	return []*trace.Snapshot{recorded(t, name+"-whole", g, opts, nil, nil)}
}

// TestCorpusReplays: every snapshot of the corpus, marshalled again and read
// back, plans what the file does — the planner fuzzer's JSON invariant. That
// each settled one replays its cut, the engine's TestCorpusReplaysItsCuts
// holds.
func TestCorpusReplays(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(snapshotDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshots under %s: %v", snapshotDir, err)
	}
	budget := Budget{Cores: 4, MemoryBytes: 64 << 20}
	decided := func(snap *trace.Snapshot) string {
		r := planOf(t, snap, nil, budget)
		return jsonOf([]any{r.Plan, r.Final, r.Trail, r.PredictedMinibatchesPerSec})
	}
	for _, path := range paths {
		snap := load(t, path)
		again, _ := snap.Marshal() // it was just unmarshalled
		back, err := trace.UnmarshalSnapshot(again)
		if err != nil {
			t.Fatal(err)
		}
		if decided(back) != decided(snap) {
			t.Errorf("%s: read back, the snapshot planned\n%s\nfrom the file\n%s", path, decided(back), decided(snap))
		}
	}
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
// over outer-parallel replicas), root completions where it does not. Which
// stream that is, a live trace cut at its fourth sample shows. The rates are
// the corpus's: a settled trace's, or, where the corpus keeps a shape's
// whole streams (chain, zip, repeat, filter, replicas), what the rule reads
// off each, which the engine's TestSettleRuleOnRecordedStreams holds to the
// whole passes' X_0.
func TestBoundedTraceAgreesWithWholePass(t *testing.T) {
	for _, tc := range []struct {
		shape string
		cut   bool   // compare a trace cut at 5 minibatches, field by field
		stage string // the settle rule's stream: the batch's, or the root's ("")
		// like is the shape whose whole pass has the X_0 a prefix can know: a
		// Concat's prefix lies in its first branch, the chain.
		like string
	}{
		{shape: "chain", cut: true, stage: "batch"}, {shape: "zip", cut: true, stage: "batch"}, {shape: "repeat", cut: true, stage: "batch"},
		{shape: "cached", stage: "batch"}, {shape: "shuffled", stage: "batch"}, {shape: "filter", stage: "batch"}, {shape: "replicas", stage: "batch"},
		{shape: "bare"}, {shape: "zip root"}, {shape: "concat root", like: "chain"},
	} {
		shape, stage, opts := tc.shape, tc.stage, boundedOptions(t)
		g, name := boundedGraph(t, shape), strings.ReplaceAll(shape, " ", "-")
		live, err := traceUntil(g, opts, firesAt(4))
		if err != nil {
			t.Fatal(err)
		}
		if r := live.Run; !r.Settled || r.Stage != stage || r.Samples != 4 || len(live.Progress) != 4 {
			t.Errorf("%s: a rule firing at the fourth sample cut at %+v; want the stream of %q", shape, *r, stage)
		}

		ref := shape
		if tc.like != "" {
			ref = tc.like
		}
		wholes := wholePasses(t, ref, opts)
		if ref != shape || len(wholes[0].Progress) == 0 {
			settled := recorded(t, name+"-settled", g, opts, engine.Settled, nil)
			if r := settled.RunCost(); !r.Settled || r.Stage != stage {
				t.Errorf("%s: the settled trace cost %+v; want it settled, on the stream of %q", shape, r, stage)
			}
			for _, whole := range wholes {
				if bounded, pass := tracedX0(settled), analysis(t, whole, opts.UDFs).ObservedRate; !within(bounded, pass, 0.10) {
					t.Errorf("%s: a settled trace reads X_0 = %.2f, a whole pass %.2f", shape, bounded, pass)
				}
			}
		}
		if !tc.cut {
			continue
		}
		opts.MaxMinibatches = 5
		cut := analysis(t, recorded(t, name+"-cut5", g, opts, nil, nil), opts.UDFs)
		whole := analysis(t, wholes[0], opts.UDFs)
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
// trace a few examples into a minibatch, and the canceled batch then flushes
// what it holds. Read from the counters that leaves behind — say four
// minibatches for some fifty examples — decode would be visited 12.5 times a
// minibatch, not 16, and look a quarter cheaper than it is. Read at the cut,
// every stage's visit ratio and rate are the whole pass's.
func TestSettledTraceAnalyzesAtTheCut(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "chain")
	snap := recorded(t, "chain-settled", g, opts, engine.Settled, nil)
	if run := snap.RunCost(); !run.Settled || run.Cut%16 == 0 {
		t.Fatalf("the recorded trace was not cut inside a minibatch: %+v", run)
	}
	an := analysis(t, snap, opts.UDFs)
	for _, whole := range wholePasses(t, "chain", opts) {
		for i, w := range analysis(t, whole, opts.UDFs).Nodes {
			if c := an.Nodes[i]; !within(c.VisitRatio, w.VisitRatio, 0.02) || !within(c.Rate, w.Rate, 0.02) {
				t.Errorf("a trace cut at %+v: %s VisitRatio %.4g and Rate %.4g, whole pass %.4g and %.4g",
					snap.RunCost(), w.Name, c.VisitRatio, c.Rate, w.VisitRatio, w.Rate)
			}
		}
	}
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
// seven and a half of them, and it is the reference here.) The costs and
// predictions are the corpus's; live, plan-first plans what the whole pass
// does.
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
		var settled, whole *trace.Snapshot
		if tc.batch == 16 { // the chain shape
			settled, whole = recorded(t, "chain-settled", g, opts, engine.Settled, nil), wholePasses(t, "chain", opts)[0]
		} else {
			name := fmt.Sprintf("batch%d", tc.batch)
			settled, whole = recorded(t, name+"-settled", g, opts, engine.Settled, nil), recorded(t, name+"-whole", g, opts, nil, nil)
		}
		b, w := planOf(t, settled, opts.UDFs, budget), planOf(t, whole, opts.UDFs, budget)
		if final, wholeFinal := jsonOf(b.Final), jsonOf(w.Final); final != wholeFinal || b.Plan.CoresPlanned != w.Plan.CoresPlanned {
			t.Fatalf("batch %d: the settled trace planned (%d cores)\n%s\nthe whole pass planned (%d cores)\n%s",
				tc.batch, b.Plan.CoresPlanned, final, w.Plan.CoresPlanned, wholeFinal)
		}
		if run := b.Steps[0].Run; !run.Settled || run.RootCompletions > tc.maxRoot || run.Seconds > tc.limit.Seconds() {
			t.Errorf("batch %d: the planning trace cost %+v; want it settled within %v and %d minibatches", tc.batch, run, tc.limit, tc.maxRoot)
		}
		if !within(b.PredictedMinibatchesPerSec, w.PredictedMinibatchesPerSec, 0.05) {
			t.Errorf("batch %d: the settled trace predicted %.1f mb/s, the whole pass %.1f; want them within 5 %%",
				tc.batch, b.PredictedMinibatchesPerSec, w.PredictedMinibatchesPerSec)
		}
		live := planFirst(t, g, budget, opts, engine.Settled)
		if got := jsonOf(live.Final); got != jsonOf(w.Final) {
			t.Errorf("batch %d: plan-first planned\n%s\nthe whole pass\n%s", tc.batch, got, jsonOf(w.Final))
		}
		askedTheRule(t, fmt.Sprintf("batch %d", tc.batch), live.Steps[0].Run)
	}
}

// askedTheRule fails unless a stop rule was asked of the planning trace's
// stream — whatever the host's load, it has samples — and, if it cut the
// trace, of the stream of examples into the batch.
func askedTheRule(t *testing.T, what string, run trace.Run) {
	t.Helper()
	if run.Samples == 0 || run.Settled && run.Stage != "batch" {
		t.Errorf("%s: the planning trace cost %+v; want the settle rule asked of the batch's stream", what, run)
	}
}

// openCounter notes whether a file was opened twice on a connector.
type openCounter struct {
	Connector
	opened sync.Map
	twice  atomic.Bool
}

func (c *openCounter) Open(path string) (connector.Reader, error) {
	if _, again := c.opened.LoadOrStore(path, true); again {
		c.twice.Store(true)
	}
	return c.Connector.Open(path)
}

// TestOptimizeTracesOnce: on the vision shape plan-first is one settled
// trace and the arithmetic on it — no shard is opened twice, as a second
// pipeline would — and the program it returns is the one it returned when
// it traced that program before handing it over: decode at 2, a cache above
// the batch, prefetch(8) at the root, one replica. Replayed, the rate it
// predicts for it is the rate a trace of it reads.
func TestOptimizeTracesOnce(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "chain")
	budget := Budget{Cores: 2, MemoryBytes: 256 << 20}
	want := pipeline.NewBuilder().
		Named("src").Interleave(boundedCatalog.Name, 1).
		Named("decode").Map("bounded_decode", 2).
		Named("batch").Batch(16).
		Named("plumber_cache").Cache().
		Named("plumber_prefetch").Prefetch(8).MustBuild()
	counted := opts
	opens := &openCounter{Connector: opts.Source}
	counted.Source = opens
	res, err := Optimize(g, budget, counted)
	if err != nil {
		t.Fatal(err)
	}
	if res.TracesUsed != 1 || len(res.Steps) != 1 {
		t.Fatalf("plan-first took %d traces over %d steps, want 1 and 1", res.TracesUsed, len(res.Steps))
	}
	if got := jsonOf(res.Final); got != jsonOf(want) {
		t.Fatalf("one trace planned\n%s\nwant\n%s", got, jsonOf(want))
	}
	if opens.twice.Load() {
		t.Error("Optimize opened a shard twice; one trace opens each shard once")
	}
	askedTheRule(t, "Optimize", res.Steps[0].Run)

	planned := planOf(t, recorded(t, "chain-settled", g, opts, engine.Settled, nil), opts.UDFs, budget)
	if got := jsonOf(planned.Final); got != jsonOf(want) {
		t.Fatalf("the recorded trace planned\n%s\nwant\n%s", got, jsonOf(want))
	}
	measured := tracedX0(recorded(t, "chain-planned-settled", want, opts, engine.Settled, nil))
	if !within(measured, planned.PredictedMinibatchesPerSec, 0.25) {
		t.Errorf("predicted %.1f mb/s for a program a settled trace reads at %.1f; want within 25 %%", planned.PredictedMinibatchesPerSec, measured)
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
// allowance is spent: a settled trace of it on a device whose first epoch,
// 4.1 MB, has been read. The rates are the corpus's; live, Optimize plans
// what the recorded trace plans.
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
	fresh := func() Options { // a device nobody has read from
		fs := connector.FromSimFS(simfs.New(dev, true))
		fs.AddCatalog(cat, 1)
		return Options{Source: fs, UDFs: reg, Seed: 1, WorkScale: 1, Spin: true}
	}

	// What the declared bandwidth is worth, from a pass that never waits.
	twin := connector.NewMem("bounded-burst-twin")
	twin.AddCatalog(cat, 1)
	twinOpts := Options{Source: twin, UDFs: reg, Seed: 1}
	diskBound := analysis(t, recorded(t, "burst-twin", g, twinOpts, nil, nil), reg).Ceiling(ops.Hypothetical{DiskBandwidth: dev.TotalBandwidth}).Storage

	snap := recorded(t, "burst-settled", g, fresh(), engine.Settled, nil)
	res := planOf(t, snap, reg, budget)
	if traced := res.Steps[0].ObservedMinibatchesPerSec; traced < 2*diskBound {
		t.Fatalf("the recorded planning trace read %.0f minibatches/s of a device good for %.0f: no burst, nothing to show", traced, diskBound)
	}
	if res.PredictedMinibatchesPerSec > 1.05*diskBound {
		t.Fatalf("predicted %.0f minibatches/s under a declared bandwidth worth %.0f (the trace read %.0f, inside the device's burst)",
			res.PredictedMinibatchesPerSec, diskBound, res.Steps[0].ObservedMinibatchesPerSec)
	}
	epoch := int64(cat.NumFiles*cat.RecordsPerFile) / 16
	spent := fresh()
	sustained := tracedX0(recorded(t, "burst-sustained", res.Final, spent, engine.Settled, func() (*trace.Snapshot, error) {
		p, err := engine.New(res.Final, engine.Options{FS: spent.Source, UDFs: reg, Seed: 1})
		if err != nil {
			return nil, err
		}
		n, _, err := p.Drain(epoch)
		p.Close()
		if err != nil || n != epoch {
			return nil, fmt.Errorf("first epoch: %d minibatches, %v", n, err)
		}
		return traceUntil(res.Final, spent, engine.Settled)
	}))
	if !within(res.PredictedMinibatchesPerSec, sustained, 0.12) {
		t.Fatalf("predicted %.0f minibatches/s, the planned program sustains %.0f", res.PredictedMinibatchesPerSec, sustained)
	}

	live, err := Optimize(g, budget, fresh())
	if err != nil {
		t.Fatal(err)
	}
	if got := jsonOf(live.Final); live.TracesUsed != 1 || got != jsonOf(res.Final) {
		t.Errorf("Optimize took %d traces and planned\n%s\nthe recorded trace planned\n%s", live.TracesUsed, got, jsonOf(res.Final))
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
	return planOf(t, snap, opts.UDFs, budget)
}

func planOf(t *testing.T, snap *trace.Snapshot, reg *udf.Registry, budget Budget) *Result {
	t.Helper()
	res, err := Plan(snap, reg, budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBoundedOptimizeMatchesWholePass: on the six canonical scenarios the
// program planned from a trace that stops when the rate has settled is the
// one planned from a whole pass — every knob, cache point and prefetch — and
// the two predictions are within 5 %. The modeled CPU is burned, twice over,
// so the traces take real time and those of the scenarios with 100 ms of
// work or more do settle. The predictions held are the corpus's; live,
// plan-first plans what the recorded whole pass does. Where no prediction is
// held — a pass too short for the rule to fire (tiny-files, cold-storage:
// both traces are whole passes, two samples of one thing, and 12 ms of it is
// noise), shards of different record sizes read one after another (skewed:
// the rate of the first few is not the rate of the pass, and no prefix can
// know) — a live settled trace and a live whole pass must still plan the
// same.
func TestBoundedOptimizeMatchesWholePass(t *testing.T) {
	held := map[string]bool{"vision": true, "nlp": true, "random-augment": true}
	for _, spec := range scenario.Suite(false) {
		w, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Source: w.Source, UDFs: w.Registry, Seed: spec.Seed, WorkScale: 2, Spin: true}
		budget := Budget{Cores: 4, MemoryBytes: 64 << 20, DiskBandwidth: w.DiskBandwidth}
		live := planFirst(t, w.Graph, budget, opts, engine.Settled)
		var whole *Result
		if held[spec.Name] {
			b := planOf(t, recorded(t, "scenario-"+spec.Name+"-settled", w.Graph, opts, engine.Settled, nil), opts.UDFs, budget)
			whole = planOf(t, recorded(t, "scenario-"+spec.Name+"-whole", w.Graph, opts, nil, nil), opts.UDFs, budget)
			if bj, fj := jsonOf(b.Final), jsonOf(whole.Final); bj != fj {
				t.Fatalf("%s: the settled trace planned\n%s\nthe whole pass planned\n%s", spec.Name, bj, fj)
			}
			if !b.Steps[0].Run.Settled {
				t.Errorf("%s: the recorded trace never settled: %+v", spec.Name, b.Steps[0].Run)
			}
			if bounded, pass := b.PredictedMinibatchesPerSec, whole.PredictedMinibatchesPerSec; !within(bounded, pass, 0.05) {
				t.Errorf("%s: predicted %.1f mb/s from the settled trace, %.1f from the whole pass", spec.Name, bounded, pass)
			}
		} else {
			whole = planFirst(t, w.Graph, budget, opts, nil)
		}
		if lj, fj := jsonOf(live.Final), jsonOf(whole.Final); lj != fj {
			t.Errorf("%s: plan-first planned\n%s\nthe whole pass\n%s", spec.Name, lj, fj)
		}
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
// into the cache's fill — here at a fixed lump, where the settle rule would
// cut wherever the host let the rate settle. What that trace recorded must not be in the caller's
// store as an epoch — and with one core budgeted the chain below the cache is
// planned as it was traced, so an entry left there would be served: the next
// pass through the store has to fill the cache from the source and deliver
// everything, and only the pass after that is served from memory.
func TestBoundedOptimizeLeavesNoPartialCache(t *testing.T) {
	opts := boundedOptions(t)
	g := boundedGraph(t, "cached")
	opts.Caches = engine.NewCacheStore() // the caller's store, as Options.Caches
	// Cut at the fourth lump into the batch, of eight at the fewest: inside
	// the fill, however the host runs.
	res := planFirst(t, g, Budget{Cores: 1, MemoryBytes: 256 << 20}, opts, firesAt(4))
	if !res.Steps[0].Run.Settled {
		t.Fatalf("the planning trace was not cut: %+v", res.Steps[0].Run)
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
