package bench

import (
	"fmt"
	"runtime"
	"time"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/rewrite"
	"plumber/internal/udf"
)

// TunerCatalog is the synthetic dataset the closed-loop tuner benchmark
// optimizes over. Small enough that every Optimize trace step is a few tens
// of milliseconds, costly enough (decodeUDF below) that the modeled CPU
// dominates engine overhead.
var TunerCatalog = data.Catalog{
	Name:                  "bench-tuner",
	NumFiles:              4,
	RecordsPerFile:        512,
	MeanRecordBytes:       1024,
	RecordBytesStddevFrac: 0.25,
	DecodeAmplification:   1.0,
}

// TunerQuickCatalog is the reduced CI smoke variant.
var TunerQuickCatalog = data.Catalog{
	Name:                  "bench-tuner-quick",
	NumFiles:              2,
	RecordsPerFile:        256,
	MeanRecordBytes:       1024,
	RecordBytesStddevFrac: 0.25,
	DecodeAmplification:   1.0,
}

// decodeUDF is the tuner workload's map stage: a decode-shaped cost-model
// UDF burning 20 CPU-microseconds per element (with Spin), so parallelism
// decisions have real wallclock consequences.
const (
	decodeUDF       = "bench_decode"
	decodeCPUMicros = 20.0
	tunerBatchSize  = 32
	tunerPrefetch   = 8
)

// TunerReport is the checked-in BENCH_tuner.json document: the tuner's
// per-step capacity trajectory, the applied-rewrite audit trail serialized
// alongside the final graph, and measured throughput of the sequential
// starting point, the tuned program, and the hand-tuned reference.
type TunerReport struct {
	// Schema identifies the document format for future tooling.
	Schema string `json:"schema"`
	// HostCores is runtime.NumCPU on the measuring host; Budget.Cores is
	// what the tuner allocated against.
	HostCores int    `json:"host_cores"`
	GoVersion string `json:"go_version"`
	// Budget is the resource envelope handed to plumber.Optimize.
	Budget plumber.Budget `json:"budget"`
	// Epochs is how many dataset passes each measured drain covers (later
	// passes let an inserted cache pay off).
	Epochs int `json:"epochs"`

	// Steps is the tuner's per-step capacity trajectory.
	Steps []plumber.StepReport `json:"steps"`
	// Trail is the audit trail of applied rewrites.
	Trail rewrite.Trail `json:"trail"`
	// Initial and Final are the program before and after tuning.
	Initial *pipeline.Graph `json:"initial"`
	Final   *pipeline.Graph `json:"final"`
	// Converged reports whether the loop ended because no remedy applied.
	Converged bool `json:"converged"`

	// Measured throughput (examples/second, Spin on) for the three
	// configurations, best of Reps drains each.
	SequentialExamplesPerSec float64 `json:"sequential_examples_per_sec"`
	TunedExamplesPerSec      float64 `json:"tuned_examples_per_sec"`
	HandTunedExamplesPerSec  float64 `json:"hand_tuned_examples_per_sec"`
	// HandTuned is the expert reference program the tuned one is held to.
	HandTuned *pipeline.Graph `json:"hand_tuned"`

	// Comparisons holds the acceptance ratios:
	// tuned_fraction_of_hand_tuned >= 0.8 is the target.
	Comparisons map[string]float64 `json:"comparisons"`
}

// registerTunerWorkload registers catalogs and the decode UDF; idempotent.
func registerTunerWorkload(reg *udf.Registry) error {
	if err := data.RegisterCatalog(TunerCatalog); err != nil {
		return err
	}
	if err := data.RegisterCatalog(TunerQuickCatalog); err != nil {
		return err
	}
	return reg.Register(udf.UDF{
		Name: decodeUDF,
		Cost: udf.Cost{CPUPerElement: decodeCPUMicros * 1e-6, SizeFactor: 1},
	})
}

// sequentialTunerGraph is the all-sequential starting point: every knob at
// its default, no prefetch, no cache.
func sequentialTunerGraph(catalog string) (*pipeline.Graph, error) {
	return pipeline.NewBuilder().
		Interleave(catalog, 1).
		Map(decodeUDF, 1).
		Batch(tunerBatchSize).
		Build()
}

// handTunedGraph is the expert reference under the same core budget: read
// parallelism stays at 1 (the in-memory source is cheap), the costly decode
// gets every remaining core, and a prefetch decouples the consumer.
func handTunedGraph(catalog string, cores int) (*pipeline.Graph, error) {
	mapPar := cores - 1
	if mapPar < 1 {
		mapPar = 1
	}
	return pipeline.NewBuilder().
		Interleave(catalog, 1).
		Map(decodeUDF, mapPar).
		Batch(tunerBatchSize).
		Prefetch(tunerPrefetch).
		Build()
}

// measureThroughput drains epochs passes of the graph with Spin on and
// returns examples/second, best of reps runs. The graph is wrapped with a
// Repeat through the transactional primitives, so a Cache inserted by the
// tuner serves epochs after the first from memory exactly as in training.
func measureThroughput(g *pipeline.Graph, src connector.Connector, reg *udf.Registry, epochs, reps int) (float64, error) {
	_, examples, err := measureDrain(g, src, reg, epochs, reps)
	return examples, err
}

// measureDrain is measureThroughput that also returns the best run's
// minibatches/second. Every run starts with cold caches, so one epoch is a
// fill epoch — what a plan's PredictedMinibatchesPerSec predicts.
func measureDrain(g *pipeline.Graph, src connector.Connector, reg *udf.Registry, epochs, reps int) (minibatchesPerSec, examplesPerSec float64, err error) {
	wrapped, err := g.InsertAbove(g.Output, pipeline.Node{
		Name: "bench_epochs", Kind: pipeline.KindRepeat, Count: int64(epochs),
	})
	if err != nil {
		return 0, 0, err
	}
	for rep := 0; rep < reps; rep++ {
		p, err := engine.New(wrapped, engine.Options{
			FS: src, UDFs: reg, Seed: 42, WorkScale: 1, Spin: true,
		})
		if err != nil {
			return 0, 0, err
		}
		// Collect before timing: a preceding Optimize can leave tens of MB
		// of dead cache stores whose collection would otherwise land in
		// (and skew) the first measured drains.
		runtime.GC()
		start := time.Now()
		minibatches, examples, err := p.Drain(0)
		elapsed := time.Since(start)
		p.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("bench tuner drain: %w", err)
		}
		if elapsed > 0 {
			if rate := float64(examples) / elapsed.Seconds(); rate > examplesPerSec {
				minibatchesPerSec, examplesPerSec = float64(minibatches)/elapsed.Seconds(), rate
			}
		}
	}
	return minibatchesPerSec, examplesPerSec, nil
}

// RunTuner runs the closed loop end to end on the synthetic catalog and
// measures the resulting program against the sequential starting point and
// the hand-tuned reference.
func RunTuner(quick bool) (*TunerReport, error) {
	cat := TunerCatalog
	epochs, reps := 3, 3
	if quick {
		cat = TunerQuickCatalog
		epochs, reps = 2, 1
	}
	reg := udf.NewRegistry()
	if err := registerTunerWorkload(reg); err != nil {
		return nil, err
	}
	fs := connector.NewMem("bench-tuner-mem")
	fs.AddCatalog(cat, 42)

	budget := plumber.Budget{Cores: 4, MemoryBytes: 256 << 20}
	seq, err := sequentialTunerGraph(cat.Name)
	if err != nil {
		return nil, err
	}
	hand, err := handTunedGraph(cat.Name, budget.Cores)
	if err != nil {
		return nil, err
	}

	// Warmup: materialize every shard so neither the tuner's traces nor the
	// measured drains pay for content generation.
	if _, err := measureThroughput(seq, fs, reg, 1, 1); err != nil {
		return nil, err
	}

	res, err := plumber.Optimize(seq, budget, plumber.Options{
		Source: fs, UDFs: reg, Seed: 42, WorkScale: 1, Spin: true,
	})
	if err != nil {
		return nil, err
	}

	rep := &TunerReport{
		Schema:      "plumber/bench-tuner/v1",
		HostCores:   runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Budget:      budget,
		Epochs:      epochs,
		Steps:       res.Steps,
		Trail:       res.Trail,
		Initial:     res.Initial,
		Final:       res.Final,
		Converged:   res.Converged,
		HandTuned:   hand,
		Comparisons: map[string]float64{},
	}

	if rep.SequentialExamplesPerSec, err = measureThroughput(seq, fs, reg, epochs, reps); err != nil {
		return nil, err
	}
	if rep.TunedExamplesPerSec, err = measureThroughput(res.Final, fs, reg, epochs, reps); err != nil {
		return nil, err
	}
	if rep.HandTunedExamplesPerSec, err = measureThroughput(hand, fs, reg, epochs, reps); err != nil {
		return nil, err
	}
	if rep.HandTunedExamplesPerSec > 0 {
		rep.Comparisons["tuned_fraction_of_hand_tuned"] = rep.TunedExamplesPerSec / rep.HandTunedExamplesPerSec
	}
	if rep.SequentialExamplesPerSec > 0 {
		rep.Comparisons["tuned_speedup_over_sequential"] = rep.TunedExamplesPerSec / rep.SequentialExamplesPerSec
	}
	return rep, nil
}
