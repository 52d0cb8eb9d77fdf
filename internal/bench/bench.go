// Package bench builds canonical pipelines and measures engine, tuner,
// planner, and scenario trajectories reproducibly (the §5 evaluation
// discipline: same workload, same budget, measured head-to-head), so every
// PR has a perf trajectory to compare against. The canonical engine
// pipeline is the paper's ResNet-shaped chain — interleave(source) ->
// map(udf) -> batch -> prefetch — run at several parallelism levels, with
// knobs to toggle the hot-path optimizations (chunked handoff, buffer
// pooling) and tracing on/off.
//
// Results are emitted as the checked-in BENCH_*.json documents by
// cmd/plumberbench; docs/BENCHMARKS.md describes every field.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// Catalog is the synthetic dataset the harness drains: small enough to
// materialize fully in memory, large enough that per-element overheads
// dominate any fixed setup cost. It is registered on first use.
var Catalog = data.Catalog{
	Name:                  "bench-hotpath",
	NumFiles:              8,
	RecordsPerFile:        2048,
	MeanRecordBytes:       1024,
	RecordBytesStddevFrac: 0.25,
	DecodeAmplification:   1.0,
}

// QuickCatalog is a smaller variant for CI smoke runs.
var QuickCatalog = data.Catalog{
	Name:                  "bench-hotpath-quick",
	NumFiles:              4,
	RecordsPerFile:        512,
	MeanRecordBytes:       1024,
	RecordBytesStddevFrac: 0.25,
	DecodeAmplification:   1.0,
}

// noopUDF is the map stage's cost-model-only UDF: it exercises the map
// worker plumbing (channel handoff, accounting) without adding modeled CPU,
// so the measurement isolates engine overhead.
const noopUDF = "bench_noop"

// Spec configures one measured run.
type Spec struct {
	// Name labels the configuration in the emitted JSON.
	Name string `json:"name"`
	// Catalog names the registered dataset to drain.
	Catalog string `json:"catalog"`
	// Parallelism is applied to both the interleave and the map stage.
	Parallelism int `json:"parallelism"`
	// BatchSize groups records into minibatches (default 64).
	BatchSize int `json:"batch_size"`
	// PrefetchDepth is the root prefetch buffer in elements (default 8).
	PrefetchDepth int `json:"prefetch_depth"`
	// ChunkSize caps the elements per worker handoff (engine.Options.ChunkSize);
	// 1 = per-element baseline.
	ChunkSize int `json:"chunk_size"`
	// Handoff selects the stage-edge implementation: "ring" (sharded SPMC
	// rings + borrowed payload views) or "channel" (the buffered-Go-channel
	// A/B baseline). Empty means the engine default (ring).
	Handoff string `json:"handoff,omitempty"`
	// DisablePool turns off pooled record buffers and payload recycling.
	DisablePool bool `json:"disable_pool"`
	// Traced attaches a trace.Collector (the "tracing on" configuration).
	Traced bool `json:"traced"`
	// SampleEvery is the traced wall-timer sampling period (default 16).
	SampleEvery int `json:"sample_every"`
	// Epochs repeats the dataset this many times per measured drain
	// (default 3); higher values amortize worker startup.
	Epochs int `json:"epochs"`
	// Reps is how many measured drains to run, keeping the fastest
	// (default 3); best-of-N suppresses scheduler and GC noise.
	Reps int `json:"reps"`
}

// Result is one measured configuration.
type Result struct {
	Spec Spec `json:"spec"`

	// Elements is the number of root (batched) elements drained.
	Elements int64 `json:"elements"`
	// Examples is the number of training examples (records) drained.
	Examples int64 `json:"examples"`
	// Bytes is the total payload bytes in drained root elements.
	Bytes int64 `json:"bytes"`
	// Seconds is the measured wallclock drain time.
	Seconds float64 `json:"seconds"`

	ElementsPerSec float64 `json:"elements_per_sec"`
	ExamplesPerSec float64 `json:"examples_per_sec"`
	BytesPerSec    float64 `json:"bytes_per_sec"`
	// NsPerExample is wallclock nanoseconds per drained record.
	NsPerExample float64 `json:"ns_per_example"`
	// AllocsPerExample is heap allocations per drained record during the
	// measured drain (runtime.MemStats.Mallocs delta).
	AllocsPerExample float64 `json:"allocs_per_example"`
	// AllocBytesPerExample is heap bytes allocated per drained record.
	AllocBytesPerExample float64 `json:"alloc_bytes_per_example"`

	// TracedElementsProduced sanity-checks the collector when Traced: the
	// source node's produced-element count from the final snapshot.
	TracedElementsProduced int64 `json:"traced_elements_produced,omitempty"`
}

func (s Spec) normalized() Spec {
	if s.Catalog == "" {
		s.Catalog = Catalog.Name
	}
	if s.Parallelism < 1 {
		s.Parallelism = 1
	}
	if s.BatchSize < 1 {
		s.BatchSize = 64
	}
	if s.PrefetchDepth < 1 {
		s.PrefetchDepth = 8
	}
	if s.ChunkSize < 1 {
		s.ChunkSize = engine.DefaultChunkSize
	}
	if s.SampleEvery < 1 {
		s.SampleEvery = 16
	}
	if s.Epochs < 1 {
		s.Epochs = 3
	}
	if s.Reps < 1 {
		s.Reps = 3
	}
	return s
}

// RegisterWorkload registers the bench catalogs and UDF; idempotent.
func RegisterWorkload(reg *udf.Registry) error {
	if err := data.RegisterCatalog(Catalog); err != nil {
		return err
	}
	if err := data.RegisterCatalog(QuickCatalog); err != nil {
		return err
	}
	return reg.Register(udf.UDF{Name: noopUDF, Cost: udf.Cost{SizeFactor: 1}})
}

// graph builds the canonical chain for a spec.
func graph(s Spec, totalBatches int64) (*pipeline.Graph, error) {
	return pipeline.NewBuilder().
		Interleave(s.Catalog, s.Parallelism).
		Map(noopUDF, s.Parallelism).
		Batch(s.BatchSize).
		Repeat(-1).
		Take(totalBatches).
		Prefetch(s.PrefetchDepth).
		Build()
}

// Run measures one spec: a warmup drain materializes the catalog's shards
// and warms the buffer pool, then a timed drain of Epochs dataset passes
// measures throughput and allocation rates.
func Run(spec Spec) (Result, error) {
	s := spec.normalized()
	reg := udf.NewRegistry()
	if err := RegisterWorkload(reg); err != nil {
		return Result{}, err
	}
	cat, err := data.CatalogByName(s.Catalog)
	if err != nil {
		return Result{}, err
	}
	fs := connector.NewMem("bench-mem")
	fs.AddCatalog(cat, 42)

	batchesPerEpoch := cat.TotalExamples() / int64(s.BatchSize)
	totalBatches := batchesPerEpoch * int64(s.Epochs)

	build := func(traced bool) (*engine.Pipeline, *trace.Collector, error) {
		g, err := graph(s, totalBatches)
		if err != nil {
			return nil, nil, err
		}
		opts := engine.Options{
			FS:                fs,
			UDFs:              reg,
			Seed:              42,
			ChunkSize:         s.ChunkSize,
			Handoff:           engine.HandoffKind(s.Handoff),
			SampleEvery:       s.SampleEvery,
			DisableBufferPool: s.DisablePool,
		}
		var col *trace.Collector
		if traced {
			col, err = trace.NewCollector(g, trace.Machine{Name: "bench", Cores: runtime.NumCPU()})
			if err != nil {
				return nil, nil, err
			}
			fs.AddObserver(col)
			opts.Collector = col
		}
		p, err := engine.New(g, opts)
		return p, col, err
	}

	// Warmup: one epoch, untraced, materializes every shard in the in-memory
	// FS so the timed run measures the engine, not content generation.
	{
		wg, err := graph(s, batchesPerEpoch)
		if err != nil {
			return Result{}, err
		}
		wp, err := engine.New(wg, engine.Options{FS: fs, UDFs: reg, Seed: 42, ChunkSize: s.ChunkSize, Handoff: engine.HandoffKind(s.Handoff), DisableBufferPool: s.DisablePool})
		if err != nil {
			return Result{}, err
		}
		if _, _, err := wp.Drain(0); err != nil {
			wp.Close()
			return Result{}, fmt.Errorf("bench warmup: %w", err)
		}
		wp.Close()
	}

	// Best-of-Reps measured drains; each rep builds a fresh pipeline.
	var (
		elements, examples int64
		elapsed            time.Duration
		m0, m1             runtime.MemStats
		best               time.Duration = -1
	)
	var col *trace.Collector
	for rep := 0; rep < s.Reps; rep++ {
		p, c, err := build(s.Traced)
		if err != nil {
			return Result{}, err
		}
		runtime.GC()
		var r0, r1 runtime.MemStats
		runtime.ReadMemStats(&r0)
		start := time.Now()
		el, ex, err := p.Drain(0)
		d := time.Since(start)
		runtime.ReadMemStats(&r1)
		p.Close()
		if c != nil {
			// Detach this rep's collector so later reps neither pay for it
			// nor leak their reads into its file map.
			fs.RemoveObserver(c)
		}
		if err != nil {
			return Result{}, fmt.Errorf("bench drain: %w", err)
		}
		if best < 0 || d < best {
			best = d
			elements, examples, elapsed = el, ex, d
			m0, m1 = r0, r1
			col = c
		}
	}

	res := Result{
		Spec:     s,
		Elements: elements,
		Examples: examples,
		Seconds:  elapsed.Seconds(),
	}
	// Bytes: examples * mean record size is an estimate; use traced bytes
	// when available, otherwise approximate from the catalog.
	res.Bytes = examples * cat.MeanRecordBytes
	if res.Seconds > 0 {
		res.ElementsPerSec = float64(elements) / res.Seconds
		res.ExamplesPerSec = float64(examples) / res.Seconds
		res.BytesPerSec = float64(res.Bytes) / res.Seconds
	}
	if examples > 0 {
		res.NsPerExample = float64(elapsed.Nanoseconds()) / float64(examples)
		res.AllocsPerExample = float64(m1.Mallocs-m0.Mallocs) / float64(examples)
		res.AllocBytesPerExample = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(examples)
	}
	if col != nil {
		snap := col.Snapshot(elapsed, cat.NumFiles)
		for _, ns := range snap.Nodes {
			if ns.Kind == pipeline.KindInterleave || ns.Kind == pipeline.KindSource {
				res.TracedElementsProduced = ns.ElementsProduced
			}
		}
	}
	return res, nil
}

// Report is the checked-in BENCH_engine.json document.
type Report struct {
	// Schema identifies the document format for future tooling.
	Schema string `json:"schema"`
	// Cores is runtime.NumCPU on the measuring host.
	Cores int `json:"cores"`
	// GoVersion is the toolchain that produced the numbers.
	GoVersion string `json:"go_version"`
	// Results holds every measured configuration.
	Results []Result `json:"results"`
	// Comparisons holds the acceptance ratios derived from Results.
	Comparisons map[string]float64 `json:"comparisons"`
}

// Suite returns the canonical configurations: the per-element baseline, the
// chunked+pooled channel-edge engine (untraced and traced), the ring-edge
// engine (untraced and traced), and a parallelism sweep. Every spec carries
// an explicit Handoff so the checked-in document is self-describing.
func Suite(quick bool) []Spec {
	cat := Catalog.Name
	epochs := 3
	if quick {
		cat = QuickCatalog.Name
		epochs = 2
	}
	specs := []Spec{
		{Name: "baseline_per_element", Catalog: cat, Parallelism: 4, ChunkSize: 1, DisablePool: true, Handoff: "channel", Epochs: epochs},
		{Name: "chunked_pooled", Catalog: cat, Parallelism: 4, Handoff: "channel", Epochs: epochs},
		{Name: "chunked_pooled_traced", Catalog: cat, Parallelism: 4, Handoff: "channel", Traced: true, Epochs: epochs},
		{Name: "ring_handoff", Catalog: cat, Parallelism: 4, Handoff: "ring", Epochs: epochs},
		{Name: "ring_handoff_traced", Catalog: cat, Parallelism: 4, Handoff: "ring", Traced: true, Epochs: epochs},
	}
	if !quick {
		for _, par := range []int{1, 2, 8} {
			specs = append(specs, Spec{
				Name:        fmt.Sprintf("chunked_pooled_par%d", par),
				Catalog:     cat,
				Parallelism: par,
				Handoff:     "channel",
				Epochs:      epochs,
			})
			specs = append(specs, Spec{
				Name:        fmt.Sprintf("ring_handoff_par%d", par),
				Catalog:     cat,
				Parallelism: par,
				Handoff:     "ring",
				Epochs:      epochs,
			})
		}
	}
	return specs
}

// RunSuite measures every spec and assembles the report, including the
// acceptance ratios: chunked_pooled speedup over the per-element baseline,
// traced throughput as a fraction of untraced, and the ring edge's speedup
// over the channel edge at the same fidelity.
func RunSuite(quick bool) (*Report, error) {
	return RunSuiteHandoff(quick, "")
}

// RunSuiteHandoff is RunSuite with an optional stage-edge override: when
// handoff is non-empty ("ring" or "channel"), every spec is forced to that
// edge — the CI smoke path that proves both implementations drain the suite.
func RunSuiteHandoff(quick bool, handoff string) (*Report, error) {
	rep := &Report{
		Schema:      "plumber/bench-engine/v1",
		Cores:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Comparisons: map[string]float64{},
	}
	byName := map[string]Result{}
	for _, s := range Suite(quick) {
		if handoff != "" {
			s.Handoff = handoff
		}
		r, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", s.Name, err)
		}
		rep.Results = append(rep.Results, r)
		byName[s.Name] = r
	}
	base, hot, traced := byName["baseline_per_element"], byName["chunked_pooled"], byName["chunked_pooled_traced"]
	ring, ringTraced := byName["ring_handoff"], byName["ring_handoff_traced"]
	if base.ExamplesPerSec > 0 {
		rep.Comparisons["chunked_pooled_speedup_over_baseline"] = hot.ExamplesPerSec / base.ExamplesPerSec
	}
	if hot.ExamplesPerSec > 0 {
		rep.Comparisons["traced_fraction_of_untraced"] = traced.ExamplesPerSec / hot.ExamplesPerSec
		rep.Comparisons["ring_handoff_speedup_over_chunked_pooled"] = ring.ExamplesPerSec / hot.ExamplesPerSec
	}
	if ring.ExamplesPerSec > 0 {
		rep.Comparisons["ring_traced_fraction_of_untraced"] = ringTraced.ExamplesPerSec / ring.ExamplesPerSec
	}
	return rep, nil
}
