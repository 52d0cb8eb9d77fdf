package ops

import (
	"bytes"
	"math"
	"testing"
	"time"

	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// prefixSnapshot is what a trace of source -> map -> shuffle(100) -> batch(16)
// -> prefetch looks like when it is cut after 5 minibatches: the prefetch
// has completed 3 the consumer never took, the batch is 7 elements into its
// ninth, the shuffle sits on a full buffer, and the source is 200 records
// ahead, half-way through its second file of six.
func prefixSnapshot(t *testing.T) *trace.Snapshot {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Named("src").Interleave("prefix", 1).
		Named("map").Map("f", 2).
		Named("shuffle").Shuffle(100).
		Named("batch").Batch(16).
		Named("prefetch").Prefetch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	node := func(name string, kind pipeline.Kind, consumed, produced int64) *trace.NodeStats {
		return &trace.NodeStats{Name: name, Kind: kind, Parallelism: 1, ElementsConsumed: consumed,
			ElementsProduced: produced, BytesProduced: produced * 1000, CPUNanos: produced * 1e6}
	}
	src := node("src", pipeline.KindInterleave, 0, 440)
	src.BytesRead = 440 * 1016
	return &trace.Snapshot{
		Graph:    g,
		Duration: time.Second,
		Nodes: map[string]*trace.NodeStats{
			"src":      src,
			"map":      node("map", pipeline.KindMap, 238, 237),
			"shuffle":  node("shuffle", pipeline.KindShuffle, 235, 135),
			"batch":    node("batch", pipeline.KindBatch, 135, 8),
			"prefetch": node("prefetch", pipeline.KindPrefetch, 8, 8),
		},
		// Both files opened are reported at their size, not at bytes read.
		Files:       map[string]int64{"/data/prefix/a": 300 * 1016, "/data/prefix/b": 300 * 1016},
		TotalFiles:  6,
		SourceFiles: map[string]int{"src": 6},
	}
}

// TestAnalyzeChainsVisitRatiosFromTheRoot: on a cut trace a stage is charged
// what the root asked of it — 16 elements a minibatch all the way down —
// and not what it has in flight; I/O and sizes follow.
func TestAnalyzeChainsVisitRatiosFromTheRoot(t *testing.T) {
	a, err := Analyze(prefixSnapshot(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, n := range a.Nodes {
		want := 16.0
		switch n.Name {
		case "batch", "prefetch":
			want = 1
		case "src":
			want = 16 * 238.0 / 237 // the map has consumed one element it has not produced
		}
		if !near(n.VisitRatio, want) {
			t.Errorf("%s VisitRatio = %v, want %v (completions per root completion: %v)", n.Name, n.VisitRatio, want, float64(n.Completions)/8)
		}
	}
	src, _ := a.Node("src")
	if want := 1016 * src.VisitRatio; !near(src.IOBytesPerMinibatch, want) {
		t.Errorf("src IOBytesPerMinibatch = %v, want bytes per record x visit ratio = %v", src.IOBytesPerMinibatch, want)
	}
	if want := 6 * 300 * 1016.0; !near(a.DatasetBytes, want) {
		t.Errorf("DatasetBytes = %v, want 6 files of the 2 sizes seen = %v", a.DatasetBytes, want)
	}
	if !near(src.Cardinality, 1800) {
		t.Errorf("src Cardinality = %v, want the catalog's 1800 records", src.Cardinality)
	}
	// A shuffle passes on what it is given, whatever its buffer holds.
	if sh, _ := a.Node("shuffle"); !near(sh.Cardinality, 1800*237.0/238) {
		t.Errorf("shuffle Cardinality = %v, want the map's", sh.Cardinality)
	}
}

// TestAnalyzeWholePassVisitRatiosUnchanged: on a whole pass everything
// produced was asked for, and the chained ratios are completions per root
// completion — including below a cache that served an epoch from memory.
func TestAnalyzeWholePassVisitRatiosUnchanged(t *testing.T) {
	g, err := pipeline.NewBuilder().
		Named("src").Interleave("prefix", 1).
		Named("filter").Filter("f").
		Named("batch").Batch(16).
		Named("cache").Cache().
		Named("repeat").Repeat(2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string][2]int64{ // consumed, produced: 1000 records, 1 in 4 dropped, 47 batches, served twice
		"src": {0, 1000}, "filter": {1000, 750}, "batch": {750, 47}, "cache": {47, 94}, "repeat": {94, 94},
	}
	snap := &trace.Snapshot{Graph: g, Duration: time.Second, Nodes: map[string]*trace.NodeStats{}}
	for name, c := range counts {
		n, _ := g.Node(name)
		snap.Nodes[name] = &trace.NodeStats{Name: name, Kind: n.Kind, ElementsConsumed: c[0], ElementsProduced: c[1], CPUNanos: 1e6}
	}
	a, err := Analyze(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a.Nodes {
		if want := float64(counts[n.Name][1]) / 94; math.Abs(n.VisitRatio-want) > 1e-12 {
			t.Errorf("%s VisitRatio = %v, want %v", n.Name, n.VisitRatio, want)
		}
	}
}

// TestParallelizableBatchIsSequential: a serialized graph that still marks
// its Batch "parallelizable_batch", a knob the engine never honoured,
// unmarshals, and its Batch is analyzed as the sequential stage the engine
// runs: no plan can price cores for it.
func TestParallelizableBatchIsSequential(t *testing.T) {
	snap := prefixSnapshot(t)
	b, err := snap.Graph.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Replace(b, []byte(`"batch_size": 16`), []byte(`"batch_size": 16, "parallelizable_batch": true`), 1)
	if snap.Graph, err = pipeline.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch, err := a.Node("batch"); err != nil || batch.Parallelizable {
		t.Fatalf("batch analyzed as parallelizable (err %v)", err)
	}
	if wide, as := a.PredictRate(Hypothetical{Parallelism: map[string]int{"batch": 4}}), a.PredictRate(Hypothetical{}); wide != as {
		t.Fatalf("4 batch workers predict %v minibatches/s, the traced shape %v", wide, as)
	}
}
