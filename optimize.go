package plumber

import (
	"fmt"
	"runtime"

	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/stats"
	"plumber/internal/trace"
)

// Budget is the resource envelope the tuner allocates against; it aliases
// plan.Budget so callers can stay entirely within the façade.
type Budget = plan.Budget

// StepReport records the state the tuner observed at its trace, before the
// plan was applied.
type StepReport struct {
	// Step is the 0-based trace index.
	Step int `json:"step"`
	// ObservedMinibatchesPerSec is X_0 from this step's trace.
	ObservedMinibatchesPerSec float64 `json:"observed_minibatches_per_sec"`
	// Bottleneck is the lowest-finite-capacity Dataset at this step.
	Bottleneck string `json:"bottleneck"`
	// BottleneckCapacity is its ScaledCapacity in minibatches/second
	// (0 encodes an all-infinite trace with no measurable bottleneck).
	BottleneckCapacity float64 `json:"bottleneck_capacity"`
	// CapacityCeiling is the budget-constrained end-to-end ceiling
	// (0 encodes an unbounded ceiling: no budget or sequential cap binds).
	CapacityCeiling float64 `json:"capacity_ceiling"`
	// ParallelCores is the worker total of the program's knobs at this step
	// (rewrite.ParallelCoresInUse). Workers are not cores: the CPU the plan
	// claims is Plan.CoresPlanned.
	ParallelCores int `json:"parallel_cores"`
	// Run is what this step's trace cost: trace_seconds of wall time,
	// the trace_root_completions before the cut, the trace_samples its stop
	// rule read, whether the rule cut it (settled; false = ran to EOF or to
	// MaxMinibatches), and where: trace_cut elements into trace_stage.
	trace.Run
}

// Result is the outcome of one Optimize run: the rewritten program, the
// audit trail of the knob changes its plan made, and the trace it planned
// from.
type Result struct {
	// Initial and Final are the program before and after tuning; Initial is
	// a clone, the caller's graph is never modified.
	Initial *pipeline.Graph `json:"initial"`
	Final   *pipeline.Graph `json:"final"`
	// Budget echoes the resource envelope the tuner ran under.
	Budget Budget `json:"budget"`
	// Trail audits every knob change the plan materialized, under the
	// canonical rewrite names.
	Trail rewrite.Trail `json:"trail"`
	// Steps holds one entry: the program Optimize traced, before the plan.
	Steps []StepReport `json:"steps"`

	// Plan is the one-shot joint allocation.
	Plan *plan.Plan `json:"plan,omitempty"`
	// PredictedMinibatchesPerSec is the calibrated what-if prediction for
	// Final's first (cache-filling) epoch on this host (the plan's
	// fill-epoch prediction evaluated with the cores this host can actually
	// deliver). Nothing here measures it: seed doctor.Config.Predicted with
	// it and the running job is held against it. 0 encodes an unbounded
	// model.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// TracesUsed counts the traced runs this call consumed — the cost the
	// predictive planner exists to minimize: one, stopped when the rate has
	// settled.
	TracesUsed int `json:"traces_used"`
}

// Optimize tunes the graph under the budget along the paper's predictive
// path: trace once, solve the LP-style joint allocation of cores, cache
// memory, prefetching, and outer parallelism in one shot, and materialize it
// as a single validated rewrite. The trace is bounded: it stops at the first
// minibatch after the rate of examples into the batch has settled
// (engine.Settled) and drops what is in flight, so it fills no cache; a
// stream that never settles is traced for its whole pass. The planned
// program is not traced again: its prediction is held against the job that
// runs it (doctor.Config.Predicted). A zero Budget.Cores allocates against
// the machine's core count, like the paper's nc-core tuner. The caller's
// graph is never modified.
func Optimize(g *pipeline.Graph, budget Budget, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The snapshot should describe the budget the tuner actually allocated
	// against, unless the caller pinned the machine.
	if opts.Machine.Cores == 0 && budget.Cores > 0 {
		opts.Machine.Cores = budget.Cores
	}
	if opts.Machine.MemoryBytes == 0 {
		opts.Machine.MemoryBytes = budget.MemoryBytes
	}
	opts = opts.withDefaults()
	if budget.Cores <= 0 {
		budget.Cores = opts.Machine.Cores
	}
	if opts.Caches == nil {
		// The caller's store carries warm caches across calls; without one,
		// the call traces over a store of its own.
		opts.Caches = engine.NewCacheStore()
	}
	res := &Result{Initial: g.Clone(), Budget: budget}
	if err := optimizePlanFirst(res, g.Clone(), budget, opts, engine.Settled); err != nil {
		return nil, err
	}
	return res, nil
}

// optimizePlanFirst is Optimize's body: 1 trace -> plan -> apply.
// stop bounds the trace; nil makes it a whole pass, which is what the tests
// compare the bounded one against.
func optimizePlanFirst(res *Result, cur *pipeline.Graph, budget Budget, opts Options, stop engine.StopRule) error {
	an, err := traceAnalyze(res, cur, opts, stop)
	if err != nil {
		return fmt.Errorf("plumber: plan trace: %w", err)
	}
	res.Steps = append(res.Steps, stepReport(0, an, budget))

	pl, err := plan.Solve(an, budget)
	if err != nil {
		return fmt.Errorf("plumber: plan solve: %w", err)
	}
	res.Plan = pl
	res.Final, res.Trail, err = rewrite.ApplyPlan(cur, pl)
	if err != nil {
		return fmt.Errorf("plumber: plan apply: %w", err)
	}

	// The prediction is for the job that runs Final on THIS host. With Spin
	// the modeled CPU is actually burned, so predict with the cores the
	// process can deliver, not the deployment budget — a laptop running a
	// 64-core plan must not read as drifted. That is the host's cores, and
	// no more than GOMAXPROCS of them: only that many goroutines spin at
	// once. Without Spin the modeled CPU is virtual (only accounted), real
	// work is the per-element engine overhead that parallelizes with the
	// knobs, and the budget's cores are the honest predictor. The job starts
	// with a fill epoch: any planned cache is cold.
	hostCores := budget.Cores
	if opts.Spin {
		hostCores = min(hostCores, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	// FiniteOrZero also covers the unbounded (+Inf) model: nothing to hold
	// the job against, encoded as 0.
	res.PredictedMinibatchesPerSec = stats.FiniteOrZero(
		an.PredictObservedRate(pl.Hypothetical(false, hostCores, budget.DiskBandwidth)))
	return nil
}

// traceAnalyze runs one accounted trace of cur — a whole pass, or with a
// stop rule until it fires — and operationalizes it.
func traceAnalyze(res *Result, cur *pipeline.Graph, opts Options, stop engine.StopRule) (*ops.Analysis, error) {
	snap, err := traceUntil(cur, opts, stop)
	if err != nil {
		return nil, err
	}
	res.TracesUsed++
	return Analyze(snap, opts.UDFs)
}

func stepReport(step int, an *ops.Analysis, budget Budget) StepReport {
	bn := an.Bottleneck()
	// JSON cannot carry +Inf or NaN; encode "no measurable bound" as 0 for
	// every rate field (stats.FiniteOrZero), so a degenerate trace never
	// makes json.Marshal fail downstream.
	return StepReport{
		Step:                      step,
		ObservedMinibatchesPerSec: stats.FiniteOrZero(an.ObservedRate),
		Bottleneck:                bn.Name,
		BottleneckCapacity:        stats.FiniteOrZero(bn.ScaledCapacity),
		CapacityCeiling:           stats.FiniteOrZero(rewrite.CapacityCeiling(an, budget)),
		ParallelCores:             rewrite.ParallelCoresInUse(an.Snapshot.Graph),
		Run:                       an.Snapshot.RunCost(),
	}
}
