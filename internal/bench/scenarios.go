package bench

import (
	"fmt"
	"runtime"

	"plumber"
	"plumber/internal/scenario"
)

// ScenarioRun is one scenario's planner-vs-greedy head-to-head.
type ScenarioRun struct {
	// Spec is the generated workload's full parameterization.
	Spec scenario.Spec `json:"spec"`
	// Budget is the envelope both tuners allocated against.
	Budget plumber.Budget `json:"budget"`
	// Planner and Greedy are the two strategies' measured outcomes.
	Planner ModeRun `json:"planner"`
	Greedy  ModeRun `json:"greedy"`
}

// TenantRun is one tenant's slice of the multi-tenant comparison.
type TenantRun struct {
	// Tenant names the arbiter slot; Scenario the workload it runs.
	Tenant   string  `json:"tenant"`
	Scenario string  `json:"scenario"`
	Weight   float64 `json:"weight"`
	// ShareCores is the arbitrated core slice (even split gets Cores/N).
	ShareCores int `json:"share_cores"`
	// PredictedMinibatchesPerSec is the arbiter's calibrated fill-epoch
	// prediction for the materialized share.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec"`
	// MeasuredExamplesPerSec is the arbitrated program's independent drain
	// rate (Spin on).
	MeasuredExamplesPerSec float64 `json:"measured_examples_per_sec"`
	// EvenSplit* are the same two numbers for the program tuned under a
	// static 1/N slice. The even-split prediction is calibrated by its own
	// fresh planning trace, so it is not directly comparable to the
	// arbiter-calibrated column above on a noisy host — cross-allocation
	// comparisons should use the report's top-level predicted aggregates,
	// which share one calibration.
	EvenSplitPredictedMinibatchesPerSec float64 `json:"even_split_predicted_minibatches_per_sec"`
	EvenSplitMeasuredExamplesPerSec     float64 `json:"even_split_measured_examples_per_sec"`

	// Concurrent* are the measured-under-contention columns: every tenant
	// running simultaneously on one shared engine worker pool (spin on),
	// in-flight workers capped at the arbitrated core share with
	// work-conserving borrowing. ConcurrentHeldShareFraction is the slice
	// of all tenants' held core-seconds this tenant actually occupied —
	// directly comparable to ShareCores over the pool capacity.
	ConcurrentMeasuredMinibatchesPerSec float64 `json:"concurrent_measured_minibatches_per_sec"`
	ConcurrentMeasuredExamplesPerSec    float64 `json:"concurrent_measured_examples_per_sec"`
	ConcurrentHeldShareFraction         float64 `json:"concurrent_held_share_fraction"`
	ConcurrentPeakWorkers               int     `json:"concurrent_peak_workers"`
}

// MultiTenantRun is the arbitrated-mix-vs-even-split comparison.
type MultiTenantRun struct {
	// Budget is the global envelope the tenants share.
	Budget plumber.Budget `json:"budget"`
	// Tenants holds the per-tenant outcomes.
	Tenants []TenantRun `json:"tenants"`
	// Predicted aggregates come from the arbiter's decision (minibatches/s,
	// fill epoch); measured aggregates sum the independent drains
	// (examples/s). On a single-core host the measured numbers cannot
	// separate core allocations — the predicted aggregates are the
	// comparison's currency, calibrated by each tenant's one trace.
	PredictedAggregate          float64 `json:"predicted_aggregate_minibatches_per_sec"`
	EvenSplitPredictedAggregate float64 `json:"even_split_predicted_aggregate_minibatches_per_sec"`
	MeasuredAggregate           float64 `json:"measured_aggregate_examples_per_sec"`
	EvenSplitMeasuredAggregate  float64 `json:"even_split_measured_aggregate_examples_per_sec"`
	// ConcurrentMeasuredAggregate sums the tenants' measured rates while
	// they actually contended on one shared pool (minibatches/s, spin on) —
	// the validation the predicted aggregates exist to be checked against.
	// ConcurrentWallSeconds is that run's wallclock.
	ConcurrentMeasuredAggregate float64 `json:"concurrent_measured_aggregate_minibatches_per_sec"`
	ConcurrentWallSeconds       float64 `json:"concurrent_wall_seconds"`
	// TracesUsed counts planning traces the arbiter consumed (one per
	// tenant).
	TracesUsed int `json:"traces_used"`
}

// ScenarioReport is the checked-in BENCH_scenarios.json document: the
// planner-vs-greedy matrix over the canonical scenario suite, plus one
// multi-tenant arbitration against the static even-split baseline.
type ScenarioReport struct {
	// Schema identifies the document format for future tooling.
	Schema    string `json:"schema"`
	HostCores int    `json:"host_cores"`
	GoVersion string `json:"go_version"`

	// Scenarios holds one planner-vs-greedy run per suite entry.
	Scenarios []ScenarioRun `json:"scenarios"`
	// MultiTenant is the arbitrated mix.
	MultiTenant MultiTenantRun `json:"multi_tenant"`

	// Comparisons holds the acceptance ratios:
	//   <name>_planner_fraction_of_greedy >= 0.9 per scenario is the
	//   target, and arbitrated_fraction_of_even_split_predicted >= 1.0.
	Comparisons map[string]float64 `json:"comparisons"`
}

// scenarioBudget is the per-scenario tuning envelope; the disk-bandwidth
// hint of bandwidth-starved scenarios rides along.
func scenarioBudget(w *scenario.Workload) plumber.Budget {
	return plumber.Budget{
		Cores:         4,
		MemoryBytes:   64 << 20,
		DiskBandwidth: w.DiskBandwidth,
	}
}

// RunScenarios measures the whole matrix.
func RunScenarios(quick bool) (*ScenarioReport, error) {
	epochs, reps := 3, 3
	if quick {
		epochs, reps = 2, 1
	}
	rep := &ScenarioReport{
		Schema:      "plumber/bench-scenarios/v1",
		HostCores:   runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Comparisons: map[string]float64{},
	}

	for _, spec := range scenario.Suite(quick) {
		w, err := scenario.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("bench scenario %s: %w", spec.Name, err)
		}
		budget := scenarioBudget(w)
		// Warmup materializes every shard so neither tuner's traces pay for
		// content generation.
		if _, err := measureThroughput(w.Graph, w.Source, w.Registry, 1, 1); err != nil {
			return nil, fmt.Errorf("bench scenario %s warmup: %w", spec.Name, err)
		}
		greedy, _, err := runMode(plumber.ModeGreedy, w.Graph, budget, w.Source, w.Registry, epochs, reps)
		if err != nil {
			return nil, fmt.Errorf("bench scenario %s: %w", spec.Name, err)
		}
		planner, _, err := runMode(plumber.ModePlanFirst, w.Graph, budget, w.Source, w.Registry, epochs, reps)
		if err != nil {
			return nil, fmt.Errorf("bench scenario %s: %w", spec.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, ScenarioRun{
			Spec: w.Spec, Budget: budget, Planner: planner, Greedy: greedy,
		})
		if greedy.MeasuredExamplesPerSec > 0 {
			rep.Comparisons[spec.Name+"_planner_fraction_of_greedy"] =
				planner.MeasuredExamplesPerSec / greedy.MeasuredExamplesPerSec
		}
	}

	mt, err := runMultiTenant(quick, epochs, reps)
	if err != nil {
		return nil, err
	}
	rep.MultiTenant = *mt
	if mt.EvenSplitPredictedAggregate > 0 {
		rep.Comparisons["arbitrated_fraction_of_even_split_predicted"] =
			mt.PredictedAggregate / mt.EvenSplitPredictedAggregate
	}
	if mt.EvenSplitMeasuredAggregate > 0 {
		rep.Comparisons["arbitrated_fraction_of_even_split_measured"] =
			mt.MeasuredAggregate / mt.EvenSplitMeasuredAggregate
	}
	if mt.PredictedAggregate > 0 {
		rep.Comparisons["concurrent_measured_fraction_of_predicted"] =
			mt.ConcurrentMeasuredAggregate / mt.PredictedAggregate
	}
	return rep, nil
}

// runMultiTenant arbitrates an asymmetric two-tenant mix (CPU-hungry vision
// next to metadata-bound tiny-files, equal weights) under one 8-core
// envelope and scores it against tuning each tenant under a static half.
func runMultiTenant(quick bool, epochs, reps int) (*MultiTenantRun, error) {
	global := plumber.Budget{Cores: 8, MemoryBytes: 64 << 20}
	mix := []string{"vision", "tiny-files"}

	specs := map[string]scenario.Spec{}
	for _, s := range scenario.Suite(quick) {
		specs[s.Name] = s
	}
	var tenants []plumber.Tenant
	workloads := map[string]*scenario.Workload{}
	for _, name := range mix {
		w, err := scenario.Build(specs[name])
		if err != nil {
			return nil, fmt.Errorf("bench multi-tenant %s: %w", name, err)
		}
		if _, err := measureThroughput(w.Graph, w.Source, w.Registry, 1, 1); err != nil {
			return nil, fmt.Errorf("bench multi-tenant %s warmup: %w", name, err)
		}
		workloads[name] = w
		tenants = append(tenants, plumber.Tenant{
			Name:          name,
			Weight:        1,
			Graph:         w.Graph,
			Source:        w.Source,
			UDFs:          w.Registry,
			Seed:          w.Spec.Seed,
			WorkScale:     1,
			DiskBandwidth: w.DiskBandwidth,
		})
	}

	arb, dec, err := plumber.ArbitrateAll(tenants, global)
	if err != nil {
		return nil, fmt.Errorf("bench multi-tenant arbitration: %w", err)
	}
	mt := &MultiTenantRun{
		Budget:                      global,
		PredictedAggregate:          dec.PredictedAggregateMinibatchesPerSec,
		EvenSplitPredictedAggregate: dec.EvenSplitPredictedAggregate,
		TracesUsed:                  dec.TracesUsed,
	}

	for i, share := range dec.Shares {
		var err error
		// Even split with remainder cores handed out in order, mirroring the
		// arbiter's own baseline.
		even := plumber.Budget{
			Cores:         global.Cores / len(mix),
			MemoryBytes:   global.MemoryBytes / int64(len(mix)),
			DiskBandwidth: global.DiskBandwidth / float64(len(mix)),
		}
		if i < global.Cores%len(mix) {
			even.Cores++
		}
		w := workloads[share.Tenant]
		tr := TenantRun{
			Tenant:                     share.Tenant,
			Scenario:                   share.Tenant,
			Weight:                     share.Weight,
			ShareCores:                 share.Budget.Cores,
			PredictedMinibatchesPerSec: share.PredictedMinibatchesPerSec,
		}
		if tr.MeasuredExamplesPerSec, err = measureThroughput(share.Program, w.Source, w.Registry, epochs, reps); err != nil {
			return nil, fmt.Errorf("bench multi-tenant %s measure: %w", share.Tenant, err)
		}
		// Even-split baseline: the same tenant tuned plan-first under a
		// static 1/N slice of every resource.
		res, err := plumber.Optimize(w.Graph, even, plumber.Options{
			Source: w.Source, UDFs: w.Registry, Seed: w.Spec.Seed, WorkScale: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("bench multi-tenant %s even-split: %w", share.Tenant, err)
		}
		tr.EvenSplitPredictedMinibatchesPerSec = res.PredictedMinibatchesPerSec
		if tr.EvenSplitMeasuredExamplesPerSec, err = measureThroughput(res.Final, w.Source, w.Registry, epochs, reps); err != nil {
			return nil, fmt.Errorf("bench multi-tenant %s even-split measure: %w", share.Tenant, err)
		}
		mt.MeasuredAggregate += tr.MeasuredExamplesPerSec
		mt.EvenSplitMeasuredAggregate += tr.EvenSplitMeasuredExamplesPerSec
		mt.Tenants = append(mt.Tenants, tr)
	}

	// The contention experiment: all tenants simultaneously on one shared
	// worker pool, spin on so the cost model's CPU is actually burned.
	// Best-of-reps suppresses scheduler noise like the sequential drains do.
	var run *plumber.RunReport
	for rep := 0; rep < reps; rep++ {
		r, err := arb.RunConcurrent(dec, plumber.RunOptions{Spin: true})
		if err != nil {
			return nil, fmt.Errorf("bench multi-tenant concurrent run: %w", err)
		}
		if run == nil || r.MeasuredAggregateMinibatchesPerSec > run.MeasuredAggregateMinibatchesPerSec {
			run = r
		}
	}
	mt.ConcurrentMeasuredAggregate = run.MeasuredAggregateMinibatchesPerSec
	mt.ConcurrentWallSeconds = run.WallSeconds
	for _, ms := range run.Tenants {
		for i := range mt.Tenants {
			if mt.Tenants[i].Tenant != ms.Tenant {
				continue
			}
			mt.Tenants[i].ConcurrentMeasuredMinibatchesPerSec = ms.MeasuredMinibatchesPerSec
			mt.Tenants[i].ConcurrentMeasuredExamplesPerSec = ms.MeasuredExamplesPerSec
			mt.Tenants[i].ConcurrentHeldShareFraction = ms.HeldShareFraction
			mt.Tenants[i].ConcurrentPeakWorkers = ms.PeakWorkers
		}
	}
	return mt, nil
}
