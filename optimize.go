package plumber

import (
	"fmt"

	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// Budget is the resource envelope the tuner allocates against; it aliases
// plan.Budget so callers can stay entirely within the façade.
type Budget = plan.Budget

// StepReport records the state the tuner observed at its trace, before the
// plan was applied.
type StepReport struct {
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

// Result is the outcome of one Plan (or Optimize): the rewritten program,
// the audit trail of the knob changes its plan made, and the trace it
// planned from.
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
	// Steps holds one entry: the program the snapshot traced, before the
	// plan.
	Steps []StepReport `json:"steps"`

	// Plan is the one-shot joint allocation.
	Plan *plan.Plan `json:"plan,omitempty"`
	// PredictedMinibatchesPerSec is the calibrated what-if prediction for
	// Final's first (cache-filling) epoch on the traced host (the plan's
	// fill-epoch prediction evaluated with the cores that host can
	// deliver). Nothing here measures it: seed doctor.Config.Predicted with
	// it and the running job is held against it. 0 encodes an unbounded
	// model.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// TracesUsed counts the traced runs this call consumed — the cost the
	// predictive planner exists to minimize: one for Optimize, stopped when
	// the rate has settled, and none for Plan.
	TracesUsed int `json:"traces_used"`
}

// Optimize tunes the graph under the budget along the paper's predictive
// path: trace once, then Plan from that one snapshot — solve the LP-style
// joint allocation of cores, cache memory, prefetching, and outer
// parallelism in one shot, and materialize it as a single validated
// rewrite. The trace is bounded: it stops at the first minibatch after the
// rate of examples into the batch has settled (engine.Settled) and drops
// what is in flight, so it fills no cache; a stream that never settles is
// traced for its whole pass. The planned program is not traced again: its
// prediction is held against the job that runs it
// (doctor.Config.Predicted). A zero Budget.Cores allocates against
// Options.Machine's cores (default: the host's), like the paper's nc-core
// tuner. The caller's graph is never modified.
func Optimize(g *pipeline.Graph, budget Budget, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	snap, err := traceUntil(g, opts, engine.Settled)
	if err != nil {
		return nil, fmt.Errorf("plumber: plan trace: %w", err)
	}
	res, err := Plan(snap, opts.UDFs, budget)
	if err != nil {
		return nil, err
	}
	res.TracesUsed = 1
	return res, nil
}

// Plan is the deciding half of Optimize, over one snapshot: analyze it,
// solve the joint allocation under the budget, materialize the plan as one
// rewritten clone of the traced program, and predict that program's first
// (cache-filling) epoch. It reads nothing but its arguments, so a snapshot
// written to a file and read back plans the same Result. A zero
// Budget.Cores allocates against the traced machine's cores. reg may be
// nil, in which case all UDFs are treated as deterministic.
func Plan(snap *trace.Snapshot, reg *udf.Registry, budget Budget) (*Result, error) {
	if budget.Cores <= 0 {
		budget.Cores = snap.Machine.Cores
	}
	an, err := Analyze(snap, reg)
	if err != nil {
		return nil, fmt.Errorf("plumber: plan analyze: %w", err)
	}
	final, trail, pl, err := rewrite.SolveShare(an, budget)
	if err != nil {
		return nil, fmt.Errorf("plumber: plan: %w", err)
	}
	// The prediction is for the job that runs Final on the traced host.
	// Where the trace burned its modeled CPU, only the cores it could burn
	// it on deliver — a laptop running a 64-core plan must not read as
	// drifted. Where the modeled CPU was only accounted, real work is the
	// per-element engine overhead that parallelizes with the knobs, and the
	// budget's cores are the honest predictor. The job starts with a fill
	// epoch: any planned cache is cold.
	cores := budget.Cores
	if c := snap.Machine.SchedulableCores; c > 0 {
		cores = min(cores, c)
	}
	return &Result{
		Initial: snap.Graph.Clone(),
		Final:   final,
		Budget:  budget,
		Trail:   trail,
		Steps:   []StepReport{stepReport(an, budget)},
		Plan:    pl,
		// FiniteOrZero also covers the unbounded (+Inf) model: nothing to
		// hold the job against, encoded as 0.
		PredictedMinibatchesPerSec: stats.FiniteOrZero(
			an.PredictObservedRate(pl.Hypothetical(false, cores, budget.DiskBandwidth))),
	}, nil
}

func stepReport(an *ops.Analysis, budget Budget) StepReport {
	bn := an.Bottleneck()
	// JSON cannot carry +Inf or NaN; encode "no measurable bound" as 0 for
	// every rate field (stats.FiniteOrZero), so a degenerate trace never
	// makes json.Marshal fail downstream.
	return StepReport{
		ObservedMinibatchesPerSec: stats.FiniteOrZero(an.ObservedRate),
		Bottleneck:                bn.Name,
		BottleneckCapacity:        stats.FiniteOrZero(bn.ScaledCapacity),
		CapacityCeiling:           stats.FiniteOrZero(rewrite.CapacityCeiling(an, budget)),
		ParallelCores:             rewrite.ParallelCoresInUse(an.Snapshot.Graph),
		Run:                       an.Snapshot.RunCost(),
	}
}
