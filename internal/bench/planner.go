package bench

import (
	"fmt"
	"runtime"
	"time"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/stats"
	"plumber/internal/udf"
)

// ModeRun is one tuning strategy's measured outcome in the planner-vs-
// greedy comparison.
type ModeRun struct {
	// Mode names the strategy ("plan-first" or "greedy").
	Mode string `json:"mode"`
	// TracesUsed counts the traced runs the tuner consumed — the cost the
	// predictive planner exists to minimize.
	TracesUsed int `json:"traces_used"`
	// WallClockMS is the wall-clock cost of the whole Optimize call:
	// time-to-capacity, including every trace.
	WallClockMS float64 `json:"wall_clock_ms"`
	// Converged reports whether tuning ended because no remedy applied.
	Converged bool `json:"converged"`
	// FinalObservedMinibatchesPerSec is the tuner's own last-trace rate
	// (greedy only: plan-first never runs the program it returns).
	FinalObservedMinibatchesPerSec float64 `json:"final_observed_minibatches_per_sec,omitempty"`
	// MeasuredExamplesPerSec is the tuned program's throughput measured
	// independently (Spin on, epochs passes, best of reps) — the
	// "converged capacity" the comparison is scored on.
	MeasuredExamplesPerSec float64 `json:"measured_examples_per_sec"`
	// PredictedMinibatchesPerSec, FillMinibatchesPerSec, and PredictionError
	// carry the plan-first what-if validation: the tuner's fill-epoch
	// prediction, an independent one-epoch drain of the planned program
	// from cold caches (best of reps), and their relative error (absent for
	// greedy).
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	FillMinibatchesPerSec      float64 `json:"fill_minibatches_per_sec,omitempty"`
	PredictionError            float64 `json:"prediction_error,omitempty"`
	// Trail and Final document what the strategy did.
	Trail rewrite.Trail   `json:"trail"`
	Final *pipeline.Graph `json:"final"`
}

// PlannerReport is the checked-in BENCH_planner.json document: the one-shot
// predictive planner head-to-head against the greedy re-trace loop on the
// same synthetic catalog and budget.
type PlannerReport struct {
	// Schema identifies the document format for future tooling.
	Schema string `json:"schema"`
	// HostCores is runtime.NumCPU on the measuring host; Budget.Cores is
	// what both tuners allocated against.
	HostCores int            `json:"host_cores"`
	GoVersion string         `json:"go_version"`
	Budget    plumber.Budget `json:"budget"`
	// Epochs is how many dataset passes each measured drain covers (later
	// passes let an inserted cache pay off).
	Epochs int `json:"epochs"`

	// Plan is the planner's one-shot joint allocation.
	Plan *plan.Plan `json:"plan"`
	// Planner and Greedy are the two strategies' measured outcomes.
	Planner ModeRun `json:"planner"`
	Greedy  ModeRun `json:"greedy"`

	// Comparisons holds the acceptance ratios:
	//   planner_fraction_of_greedy_capacity >= 0.95 is the target,
	//   with planner_traces_used == 1.
	Comparisons map[string]float64 `json:"comparisons"`
}

// runMode times one Optimize call in the given mode and measures the tuned
// program independently. The solved plan (plan-first mode) rides along.
func runMode(mode plumber.Mode, g *pipeline.Graph, budget plumber.Budget, src connector.Connector, reg *udf.Registry, epochs, reps int) (ModeRun, *plan.Plan, error) {
	start := time.Now()
	res, err := plumber.Optimize(g, budget, plumber.Options{
		Source: src, UDFs: reg, Seed: 42, WorkScale: 1, Spin: true, Mode: mode,
	})
	if err != nil {
		return ModeRun{}, nil, fmt.Errorf("bench planner %s: %w", mode, err)
	}
	elapsed := time.Since(start)
	mr := ModeRun{
		Mode:                           string(res.Mode),
		TracesUsed:                     res.TracesUsed,
		WallClockMS:                    float64(elapsed.Microseconds()) / 1e3,
		Converged:                      res.Converged,
		FinalObservedMinibatchesPerSec: res.FinalObservedMinibatchesPerSec,
		PredictedMinibatchesPerSec:     res.PredictedMinibatchesPerSec,
		Trail:                          res.Trail,
		Final:                          res.Final,
	}
	if mr.MeasuredExamplesPerSec, err = measureThroughput(res.Final, src, reg, epochs, reps); err != nil {
		return ModeRun{}, nil, err
	}
	if mr.PredictedMinibatchesPerSec > 0 {
		if mr.FillMinibatchesPerSec, _, err = measureDrain(res.Final, src, reg, 1, reps); err != nil {
			return ModeRun{}, nil, err
		}
		mr.PredictionError = stats.FiniteOrZero(stats.RelErr(mr.FillMinibatchesPerSec, mr.PredictedMinibatchesPerSec))
	}
	return mr, res.Plan, nil
}

// RunPlanner runs the planner-vs-greedy comparison end to end on the
// synthetic tuner catalog: same starting program, same budget, same
// filesystem; each mode gets its own cache store (per-Optimize default).
func RunPlanner(quick bool) (*PlannerReport, error) {
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
	fs := connector.NewMem("bench-planner-mem")
	fs.AddCatalog(cat, 42)

	budget := plumber.Budget{Cores: 4, MemoryBytes: 256 << 20}
	seq, err := sequentialTunerGraph(cat.Name)
	if err != nil {
		return nil, err
	}
	// Warmup: materialize every shard so neither tuner's traces pay for
	// content generation.
	if _, err := measureThroughput(seq, fs, reg, 1, 1); err != nil {
		return nil, err
	}

	greedy, _, err := runMode(plumber.ModeGreedy, seq, budget, fs, reg, epochs, reps)
	if err != nil {
		return nil, err
	}
	planner, solved, err := runMode(plumber.ModePlanFirst, seq, budget, fs, reg, epochs, reps)
	if err != nil {
		return nil, err
	}

	rep := &PlannerReport{
		Schema:      "plumber/bench-planner/v1",
		HostCores:   runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Budget:      budget,
		Epochs:      epochs,
		Plan:        solved,
		Planner:     planner,
		Greedy:      greedy,
		Comparisons: map[string]float64{},
	}

	if greedy.MeasuredExamplesPerSec > 0 {
		rep.Comparisons["planner_fraction_of_greedy_capacity"] = planner.MeasuredExamplesPerSec / greedy.MeasuredExamplesPerSec
	}
	rep.Comparisons["planner_traces_used"] = float64(planner.TracesUsed)
	rep.Comparisons["greedy_traces_used"] = float64(greedy.TracesUsed)
	if greedy.WallClockMS > 0 {
		rep.Comparisons["planner_wall_clock_fraction_of_greedy"] = planner.WallClockMS / greedy.WallClockMS
	}
	rep.Comparisons["planner_prediction_error"] = planner.PredictionError
	return rep, nil
}
