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
// rewrite.Budget (itself plan.Budget) so callers can stay entirely within
// the façade.
type Budget = rewrite.Budget

// Mode selects Optimize's tuning strategy.
type Mode string

const (
	// ModePlanFirst is the paper's predictive path and the default: one
	// trace, a one-shot LP-style joint allocation (internal/plan), and one
	// rewrite materializing the whole plan. The trace is bounded: it stops
	// at the first minibatch after the rate of examples into the batch has
	// settled (engine.Settled) and drops what is in flight, so it fills no
	// cache; a stream that never settles is traced for its whole pass. The
	// planned program is not traced again: its prediction is held against
	// the job that runs it (doctor.Config.Predicted).
	ModePlanFirst Mode = "plan-first"
	// ModeGreedy is the sequential closed loop (trace -> analyze -> apply
	// the first applicable remedy -> re-trace) kept for A/B comparison.
	// Its traces are whole passes: the step after a cache insertion reads
	// the cache warm, and only a completed pass fills it.
	ModeGreedy Mode = "greedy"
)

// StepReport records the state the tuner observed at one trace/analyze
// iteration, before (possibly) applying a rewrite — the per-step capacity
// trajectory.
type StepReport struct {
	// Step is the 0-based iteration index.
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
	// Applied is the rewrite this step fired, nil on the converged step.
	Applied *rewrite.Step `json:"applied,omitempty"`
	// Run is what this step's trace cost: trace_seconds of wall time,
	// trace_root_completions, the trace_samples its stop rule read, and
	// whether the rule ended it (settled; false = ran to EOF or to
	// MaxMinibatches).
	trace.Run
}

// Result is the outcome of one Optimize run: the rewritten program, the
// audit trail of applied remedies, and the per-step capacity trajectory.
type Result struct {
	// Mode is the strategy that produced this result.
	Mode Mode `json:"mode"`
	// Initial and Final are the program before and after tuning; Initial is
	// a clone, the caller's graph is never modified.
	Initial *pipeline.Graph `json:"initial"`
	Final   *pipeline.Graph `json:"final"`
	// Budget echoes the resource envelope the tuner ran under.
	Budget Budget `json:"budget"`
	// Trail is the ordered audit of every applied rewrite. In plan-first
	// mode every knob change the plan materialized appears here too, under
	// the same canonical rewrite names the greedy loop uses.
	Trail rewrite.Trail `json:"trail"`
	// Steps is the per-trace capacity trajectory. Greedy mode's last entry
	// with Applied == nil describes the converged program; plan-first's one
	// entry describes the program it traced, before the plan.
	Steps []StepReport `json:"steps"`
	// Converged is true when no remedy applied (capacity converged or the
	// budget bound) — always, for a one-shot plan; false means greedy mode's
	// step budget was exhausted first.
	Converged bool `json:"converged"`
	// FinalObservedMinibatchesPerSec is the observed rate of greedy mode's
	// last trace, which ran Final. Plan-first never runs Final and leaves
	// it 0.
	FinalObservedMinibatchesPerSec float64 `json:"final_observed_minibatches_per_sec,omitempty"`

	// Plan is the one-shot joint allocation (plan-first mode only).
	Plan *plan.Plan `json:"plan,omitempty"`
	// PredictedMinibatchesPerSec is the calibrated what-if prediction for
	// Final's first (cache-filling) epoch on this host (plan-first mode
	// only; the plan's fill-epoch prediction evaluated with the cores this
	// host can actually deliver). Nothing here measures it: seed
	// doctor.Config.Predicted with it and the running job is held against
	// it. 0 encodes an unbounded model.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// TracesUsed counts the traced runs this call consumed — the cost the
	// predictive planner exists to minimize. Plan-first's one stops when
	// the rate has settled; every greedy step's is a whole pass.
	TracesUsed int `json:"traces_used"`
}

// Optimize tunes the graph under the budget. The default ModePlanFirst
// runs the paper's predictive path: trace once, solve the LP-style joint
// allocation of cores, cache memory, prefetching, and outer parallelism in
// one shot, and materialize it as a single validated rewrite.
// ModeGreedy is the sequential closed loop (up to MaxSteps re-traces) kept
// for A/B comparison. A zero Budget.Cores allocates against the machine's
// core count, like the paper's nc-core tuner. The caller's graph is never
// modified.
func Optimize(g *pipeline.Graph, budget Budget, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Snapshots produced by the loop should describe the budget the tuner
	// actually allocated against, unless the caller pinned the machine.
	if opts.Machine.Cores == 0 && budget.Cores > 0 {
		opts.Machine.Cores = budget.Cores
	}
	if opts.Machine.MemoryBytes == 0 {
		opts.Machine.MemoryBytes = budget.MemoryBytes
	}
	userSetMaxSteps := opts.MaxSteps > 0
	opts = opts.withDefaults()
	if budget.Cores <= 0 {
		// An unbounded core budget gives the +1-per-step parallelism ramp no
		// stopping point short of the rewrites' safety caps; allocate
		// against the machine instead, like the paper's nc-core tuner.
		budget.Cores = opts.Machine.Cores
	}
	if !userSetMaxSteps && opts.Mode == ModeGreedy && 2*budget.Cores+8 > opts.MaxSteps {
		// The parallelism ramp alone can take ~cores steps per parallel
		// Dataset; leave the default step cap comfortably above it.
		opts.MaxSteps = 2*budget.Cores + 8
	}
	if opts.Caches == nil {
		// One store per run: caches inserted (or planned) at one trace are
		// warm at the next, and the engine invalidates entries whose
		// below-cache chain a later rewrite touches.
		opts.Caches = engine.NewCacheStore()
	}

	res := &Result{Mode: opts.Mode, Initial: g.Clone(), Budget: budget}
	var err error
	switch opts.Mode {
	case ModePlanFirst:
		err = optimizePlanFirst(res, g.Clone(), budget, opts, engine.Settled)
	case ModeGreedy:
		res.Final, err = greedyLoop(res, g.Clone(), budget, opts)
	default:
		err = fmt.Errorf("plumber: unknown optimize mode %q", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// optimizePlanFirst implements ModePlanFirst: 1 trace -> plan -> apply.
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
	res.Converged = true

	// The prediction is for the job that runs Final on THIS host. With Spin
	// the modeled CPU is actually burned, so predict with the cores the host
	// can deliver, not the deployment budget — a laptop running a 64-core
	// plan must not read as drifted. Without Spin the modeled CPU is virtual
	// (only accounted), real work is the per-element engine overhead that
	// parallelizes with the knobs, and the budget's cores are the honest
	// predictor. The job starts with a fill epoch: any planned cache is cold.
	hostCores := budget.Cores
	if opts.Spin {
		if n := runtime.NumCPU(); n > 0 && n < hostCores {
			hostCores = n
		}
	}
	// FiniteOrZero also covers the unbounded (+Inf) model: nothing to hold
	// the job against, encoded as 0.
	res.PredictedMinibatchesPerSec = stats.FiniteOrZero(
		an.PredictObservedRate(pl.Hypothetical(false, hostCores, budget.DiskBandwidth)))
	return nil
}

// greedyLoop runs up to opts.MaxSteps trace -> analyze -> first-applicable-
// rewrite iterations starting from cur, appending to res.Steps/res.Trail.
// When the step budget is exhausted with the last rewrite unmeasured, one
// final trace reports the returned program's rate.
func greedyLoop(res *Result, cur *pipeline.Graph, budget Budget, opts Options) (*pipeline.Graph, error) {
	rewrites := opts.Rewrites
	if rewrites == nil {
		rewrites = rewrite.DefaultRewrites(budget)
	}
	for step := 0; step < opts.MaxSteps; step++ {
		an, err := traceAnalyze(res, cur, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("plumber: optimize step %d: %w", step, err)
		}
		report := stepReport(step, an, budget)
		res.FinalObservedMinibatchesPerSec = report.ObservedMinibatchesPerSec

		applied := false
		for _, rw := range rewrites {
			next, st, ok, err := rw.Apply(an, budget)
			if err != nil {
				return nil, fmt.Errorf("plumber: optimize step %d: %s: %w", step, rw.Name(), err)
			}
			if !ok {
				continue
			}
			cur = next
			res.Trail = append(res.Trail, st)
			report.Applied = &st
			applied = true
			break
		}
		res.Steps = append(res.Steps, report)
		if !applied {
			res.Converged = true
			return cur, nil
		}
	}
	// Step budget exhausted with the last rewrite unmeasured: one final
	// trace so the reported rate matches the returned program.
	an, err := traceAnalyze(res, cur, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("plumber: optimize final trace: %w", err)
	}
	report := stepReport(len(res.Steps), an, budget)
	res.FinalObservedMinibatchesPerSec = report.ObservedMinibatchesPerSec
	res.Steps = append(res.Steps, report)
	return cur, nil
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
