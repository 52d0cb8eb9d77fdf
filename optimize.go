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
	// trace, a one-shot LP-style joint allocation (internal/plan), one
	// rewrite materializing the whole plan, one verifying trace, and
	// bounded greedy refinement only if the observed rate misses the
	// prediction by more than Options.RefineTolerance. Both traces are
	// bounded: each stops at the first minibatch after the rate of examples
	// into the batch has settled (engine.Settled) and drops what is in
	// flight, so neither fills a cache; a stream that never settles is
	// traced for its whole pass.
	ModePlanFirst Mode = "plan-first"
	// ModeGreedy is the sequential closed loop (trace -> analyze -> apply
	// the first applicable remedy -> re-trace) kept for A/B comparison.
	// Its traces — and those of plan-first's refinement, which runs the
	// same loop — are whole passes: the step after a cache insertion reads
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
	// Steps is the per-trace capacity trajectory; the last entry with
	// Applied == nil describes the converged program.
	Steps []StepReport `json:"steps"`
	// Converged is true when no remedy applied (capacity converged or the
	// budget bound); false means the step budget was exhausted first.
	Converged bool `json:"converged"`
	// FinalObservedMinibatchesPerSec is the last trace's observed rate.
	FinalObservedMinibatchesPerSec float64 `json:"final_observed_minibatches_per_sec"`

	// Plan is the one-shot joint allocation (plan-first mode only).
	Plan *plan.Plan `json:"plan,omitempty"`
	// PredictedMinibatchesPerSec is the calibrated what-if prediction for
	// the verifying trace of the planned shape (plan-first mode only; the
	// plan's fill-epoch prediction evaluated with the cores this host can
	// actually deliver). 0 encodes an unbounded model.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// VerifyObservedMinibatchesPerSec is the verifying trace's observed
	// rate (plan-first only) — the observation PredictionError is computed
	// against. It equals FinalObservedMinibatchesPerSec unless greedy
	// refinement ran afterwards.
	VerifyObservedMinibatchesPerSec float64 `json:"verify_observed_minibatches_per_sec,omitempty"`
	// PredictionError is |observed - predicted| / predicted between the
	// verifying trace and PredictedMinibatchesPerSec (plan-first only).
	PredictionError float64 `json:"prediction_error,omitempty"`
	// TracesUsed counts the traced runs this call consumed — the cost the
	// predictive planner exists to minimize. Plan-first's two stop when the
	// rate has settled; every greedy step's is a whole pass.
	TracesUsed int `json:"traces_used"`
}

// Optimize tunes the graph under the budget. The default ModePlanFirst
// runs the paper's predictive path: trace once, solve the LP-style joint
// allocation of cores, cache memory, prefetching, and outer parallelism in
// one shot, materialize it as a single validated rewrite, and verify with
// one more trace — falling back to a bounded greedy refinement only when
// the observation misses the prediction by more than RefineTolerance.
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
		res.Final, err = greedyLoop(res, g.Clone(), budget, opts, opts.MaxSteps, nil)
	default:
		err = fmt.Errorf("plumber: unknown optimize mode %q", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// optimizePlanFirst implements ModePlanFirst: 1 trace -> plan -> apply ->
// 1 verifying trace -> bounded greedy refinement only on a prediction miss.
// stop bounds the two traces; nil makes them whole passes, which is what the
// tests compare the bounded ones against.
func optimizePlanFirst(res *Result, cur *pipeline.Graph, budget Budget, opts Options, stop engine.StopRule) error {
	an, err := traceAnalyze(res, cur, opts, stop)
	if err != nil {
		return fmt.Errorf("plumber: plan trace: %w", err)
	}
	res.Steps = append(res.Steps, stepReport(0, an, budget))
	res.FinalObservedMinibatchesPerSec = stats.FiniteOrZero(an.ObservedRate)

	pl, err := plan.Solve(an, budget)
	if err != nil {
		return fmt.Errorf("plumber: plan solve: %w", err)
	}
	res.Plan = pl
	next, trail, err := rewrite.ApplyPlan(cur, pl)
	if err != nil {
		return fmt.Errorf("plumber: plan apply: %w", err)
	}
	res.Trail = append(res.Trail, trail...)
	cur = next

	// The verifying trace runs on THIS host. With Spin the modeled CPU is
	// actually burned, so predict with the cores the host can deliver, not
	// the deployment budget — a laptop verifying a 64-core plan must not
	// spuriously trigger refinement. Without Spin the modeled CPU is
	// virtual (only accounted), real work is the per-element engine
	// overhead that parallelizes with the knobs, and the budget's cores
	// are the honest predictor. The verify trace is the start of a fill
	// epoch: any planned cache starts cold, and stays cold — the trace is
	// canceled once its rate has settled, and a canceled fill commits
	// nothing to the CacheStore.
	verifyCores := budget.Cores
	if opts.Spin {
		if n := runtime.NumCPU(); n > 0 && n < verifyCores {
			verifyCores = n
		}
	}
	// FiniteOrZero also covers the unbounded (+Inf) model: nothing to
	// verify against, encoded as 0.
	predicted := stats.FiniteOrZero(
		an.PredictObservedRate(pl.Hypothetical(false, verifyCores, budget.DiskBandwidth)))
	res.PredictedMinibatchesPerSec = predicted

	if len(trail) == 0 {
		// Nothing to apply: the traced shape already is the plan, so the
		// planning trace doubles as the verifying observation — leaving the
		// verify fields at 0 would read as "prediction unverified" to JSON
		// consumers even though a prediction was published.
		res.VerifyObservedMinibatchesPerSec = stats.FiniteOrZero(an.ObservedRate)
		if predicted > 0 {
			res.PredictionError = stats.FiniteOrZero(stats.RelErr(an.ObservedRate, predicted))
		}
		res.Converged = true
		res.Final = cur
		return nil
	}
	an2, err := traceAnalyze(res, cur, opts, stop)
	if err != nil {
		return fmt.Errorf("plumber: plan verify trace: %w", err)
	}
	res.VerifyObservedMinibatchesPerSec = stats.FiniteOrZero(an2.ObservedRate)
	if predicted > 0 {
		res.PredictionError = stats.FiniteOrZero(stats.RelErr(an2.ObservedRate, predicted))
	}
	if predicted > 0 && opts.RefineTolerance > 0 && opts.MaxRefineSteps > 0 &&
		res.PredictionError > opts.RefineTolerance {
		// Observation missed the prediction: fall back to the greedy loop
		// for a bounded number of steps, reusing the verify trace's
		// analysis as its first step.
		cur, err = greedyLoop(res, cur, budget, opts, opts.MaxRefineSteps, an2)
		if err != nil {
			return fmt.Errorf("plumber: plan refine: %w", err)
		}
		res.Final = cur
		return nil
	}
	report := stepReport(len(res.Steps), an2, budget)
	res.FinalObservedMinibatchesPerSec = report.ObservedMinibatchesPerSec
	res.Steps = append(res.Steps, report)
	res.Converged = true
	res.Final = cur
	return nil
}

// greedyLoop runs up to maxSteps trace -> analyze -> first-applicable-
// rewrite iterations starting from cur, appending to res.Steps/res.Trail.
// A non-nil initial analysis (from a trace the caller already ran on cur)
// is consumed as the first iteration's input without re-tracing. When the
// step budget is exhausted with the last rewrite unmeasured, one final
// trace reports the returned program's rate.
func greedyLoop(res *Result, cur *pipeline.Graph, budget Budget, opts Options, maxSteps int, initial *ops.Analysis) (*pipeline.Graph, error) {
	rewrites := opts.Rewrites
	if rewrites == nil {
		rewrites = rewrite.DefaultRewrites(budget)
	}
	an := initial
	for i := 0; i < maxSteps; i++ {
		step := len(res.Steps)
		if an == nil {
			var err error
			an, err = traceAnalyze(res, cur, opts, nil)
			if err != nil {
				return nil, fmt.Errorf("plumber: optimize step %d: %w", step, err)
			}
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
		an = nil
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
