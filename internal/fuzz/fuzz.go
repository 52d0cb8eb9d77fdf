// Package fuzz is the planner's adversary: it draws random workload specs
// from a space much wider than the canonical scenario suite — DAG shapes
// (zip/concat branches), heavy-tailed file sizes, petabyte declared
// catalogs traced from subsamples, random stage costs, throttled devices,
// random budgets — traces each one on the real engine, plans it through
// plumber.Plan (analyze -> solve -> rewrite), and checks the invariants the
// joint planner must never violate:
//
//   - no core overcommit: the planned CPU demand (planned rate x
//     core-seconds per minibatch, all replicas, steady state and fill epoch
//     alike) fits the resolved budget, CoresPlanned reports its ceiling, and
//     the knobs sized together exceed the per-replica budget by the rounding
//     only (parallel stages - 1);
//   - no memory overcommit: CacheBytes x replicas fits MemoryBytes, and no
//     cache is planned without a memory budget;
//   - no bandwidth overcommit: the plan's modeled I/O demand fits the disk
//     budget;
//   - predictions are finite and non-negative;
//   - the planned program always validates;
//   - the snapshot is the whole contract: read back from its JSON file it
//     plans the same plan, program, trail and prediction;
//   - the joint solve is never worse than a model-level cores-then-cache
//     greedy reference by more than Epsilon (the two-phase baseline the
//     joint pass replaced).
//
// Every draw flows from one master seed through stats.NewRNG, so a failure
// is a single uint64 to replay; Minimize shrinks a failing spec before it
// is reported so counterexamples arrive small.
package fuzz

import (
	"encoding/json"
	"fmt"
	"math"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/ops"
	"plumber/internal/plan"
	"plumber/internal/scenario"
	"plumber/internal/stats"
	"plumber/internal/trace"
)

// Epsilon is the planner-vs-greedy tolerance: the joint solve's modeled
// rate must be at least (1-Epsilon) of the greedy reference's. The slack
// absorbs integer-knob discretization (water-filling grants whole cores;
// the greedy reference has no outer-replica memory pressure), not model
// differences — both sides score with the same PredictRate.
const Epsilon = 0.05

// machineCores is the fixed traced-machine size every fuzz case plans
// against, so budget resolution is identical on every host.
const machineCores = 8

// maxTraceMinibatches caps each workload's trace drain; small catalogs
// finish earlier, declared petabyte catalogs only ever materialize their
// subsample.
const maxTraceMinibatches = 256

// Case is one fuzzed workload's outcome.
type Case struct {
	Seed   uint64        `json:"seed"`
	Spec   scenario.Spec `json:"spec"`
	Budget plan.Budget   `json:"budget"`

	// PlannerRate and GreedyRate are the modeled warm-steady-state rates of
	// the joint plan and the greedy reference, scored with the same
	// PredictRate. Infinite rates (everything served from a warm cache)
	// serialize as 0 with RateInfinite set.
	PlannerRate  float64 `json:"planner_rate"`
	GreedyRate   float64 `json:"greedy_rate"`
	RateInfinite bool    `json:"rate_infinite,omitempty"`
	CacheAbove   string  `json:"cache_above,omitempty"`
	// Parallelism is the planned knob of every parallelizable Dataset.
	Parallelism map[string]int `json:"parallelism,omitempty"`
	// CoresPlanned is the plan's own claim; CPUDemand is the same quantity
	// re-derived here from the plan's knobs through ops, in cores.
	CoresPlanned  int     `json:"cores_planned"`
	CPUDemand     float64 `json:"cpu_demand"`
	OuterReplicas int     `json:"outer_replicas"`

	// Violations lists every invariant the case broke; empty means pass.
	Violations []string `json:"violations,omitempty"`
}

// Ratio is the planner/greedy score, 1 when both are infinite (or greedy
// is zero), for worst-case tracking.
func (c *Case) Ratio() float64 {
	if math.IsInf(c.PlannerRate, 1) || c.GreedyRate == 0 {
		return 1
	}
	if math.IsInf(c.GreedyRate, 1) {
		return 0 // finite planner against an infinite greedy: a real loss
	}
	return c.PlannerRate / c.GreedyRate
}

// Gen draws one workload spec and budget from the seed. Every field flows
// from one stats.RNG, so the same seed reproduces the same workload on any
// host.
func Gen(seed uint64) (scenario.Spec, plan.Budget) {
	rng := stats.NewRNG(seed)
	s := scenario.Spec{
		Name:            fmt.Sprintf("fuzz-%016x", seed),
		Files:           1 + rng.Intn(6),
		RecordsPerFile:  8 + rng.Intn(57),
		MeanRecordBytes: int64(128 + rng.Intn(8064)),
		SizeStddevFrac:  0.05 + 0.45*rng.Float64(),
		BatchSize:       []int{4, 8, 16, 32}[rng.Intn(4)],
		Seed:            rng.Uint64() | 1,
	}
	if rng.Float64() < 0.4 {
		s.FileSizeSkew = 0.3 + 0.9*rng.Float64()
	}
	if rng.Float64() < 0.2 {
		// Declared-size catalog: the traceable subsample stands in for a
		// dataset up to a millionfold larger (the §A estimation setup).
		s.TotalFiles = s.Files * []int{100, 10_000, 1_000_000}[rng.Intn(3)]
	}
	switch r := rng.Float64(); {
	case r < 0.2:
		s.Shape = "zip"
	case r < 0.4:
		s.Shape = "concat"
	}
	if s.Shape != "" && rng.Float64() < 0.5 {
		s.AuxFiles = 1 + rng.Intn(4)
		s.AuxRecordsPerFile = 8 + rng.Intn(57)
		s.AuxMeanRecordBytes = int64(64 + rng.Intn(448))
	}
	if rng.Float64() < 0.4 {
		s.ParseCPUPerElement = (2 + 48*rng.Float64()) * 1e-6
	}
	if rng.Float64() < 0.6 {
		s.DecodeCPUPerByte = (1 + 19*rng.Float64()) * 1e-9
		s.DecodeAmplification = 1 + 5*rng.Float64()
	}
	if rng.Float64() < 0.3 {
		s.DecodeCPUPerElement = (1 + 19*rng.Float64()) * 1e-6
	}
	if rng.Float64() < 0.4 {
		s.TokenizeCPUPerElement = (1 + 9*rng.Float64()) * 1e-6
	}
	if rng.Float64() < 0.25 {
		s.RandomAugment = true
		s.AugmentCPUPerElement = (5 + 25*rng.Float64()) * 1e-6
	}
	if rng.Float64() < 0.3 {
		bw := (4 + 60*rng.Float64()) * 1e6
		s.Device = connector.Device{
			Name:               "fuzz-device",
			TotalBandwidth:     bw,
			PerStreamBandwidth: bw / 2,
		}
	}
	b := plan.Budget{}
	if rng.Float64() < 0.9 {
		b.Cores = 1 + rng.Intn(16)
	}
	if rng.Float64() < 0.75 {
		b.MemoryBytes = int64(1+rng.Intn(256)) << 20
	}
	if s.Device.TotalBandwidth > 0 {
		b.DiskBandwidth = s.Device.TotalBandwidth
	}
	return s, b
}

// Check generates the workload for the seed and verifies every invariant.
func Check(seed uint64) (*Case, error) {
	s, b := Gen(seed)
	c, err := CheckSpec(s, b)
	if err != nil {
		return nil, err
	}
	c.Seed = seed
	return c, nil
}

// CheckSpec builds the spec, traces it on the real engine, plans from the
// snapshot, and records every violated invariant. The error return is
// for harness breakage (the workload could not be built or traced); a
// planner bug lands in Case.Violations instead.
func CheckSpec(s scenario.Spec, b plan.Budget) (*Case, error) {
	c := &Case{Spec: s, Budget: b}
	w, err := scenario.Build(s)
	if err != nil {
		return nil, fmt.Errorf("fuzz %s: build: %w", s.Name, err)
	}
	snap, err := plumber.Trace(w.Graph, plumber.Options{
		Source:         w.Source,
		UDFs:           w.Registry,
		Machine:        trace.Machine{Name: "fuzz", Cores: machineCores},
		Seed:           s.Seed,
		WorkScale:      1,
		MaxMinibatches: maxTraceMinibatches,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz %s: trace: %w", s.Name, err)
	}
	a, err := plumber.Analyze(snap, w.Registry)
	if err != nil {
		return nil, fmt.Errorf("fuzz %s: analyze: %w", s.Name, err)
	}
	saved, err := snap.Marshal()
	if err != nil {
		return nil, fmt.Errorf("fuzz %s: marshal snapshot: %w", s.Name, err)
	}
	res, err := plumber.Plan(snap, w.Registry, b)
	if err != nil {
		c.Violations = append(c.Violations, fmt.Sprintf("Plan failed: %v", err))
		return c, nil
	}
	// The snapshot is the whole contract between the tracer and the
	// planner: read back from its JSON, it must plan the same.
	back, err := trace.UnmarshalSnapshot(saved)
	if err != nil {
		return nil, fmt.Errorf("fuzz %s: %w", s.Name, err)
	}
	if again, err := plumber.Plan(back, w.Registry, b); err != nil {
		c.Violations = append(c.Violations, fmt.Sprintf("Plan of the snapshot read back failed: %v", err))
	} else if got, want := decided(again), decided(res); got != want {
		c.Violations = append(c.Violations, fmt.Sprintf("the snapshot read back planned\n%s\nthe one in memory\n%s", got, want))
	}
	p := res.Plan
	c.CacheAbove = p.CacheAbove
	c.Parallelism = p.Parallelism
	c.CoresPlanned = p.CoresPlanned
	c.OuterReplicas = p.OuterParallelism

	cores := res.Budget.Cores
	outer := p.OuterParallelism
	if outer < 1 {
		outer = 1
	}

	// No core overcommit, by CPU demand and by knob count. Each phase of the
	// job — the steady state, and the fill epoch of a planned cache — is
	// scored at the rate the plan's own knobs reach in it.
	cached := map[string]bool{}
	if p.CacheAbove != "" {
		cached, _ = a.AtOrBelow(p.CacheAbove)
	}
	for _, warm := range []bool{true, false} {
		if !warm && p.CacheAbove == "" {
			break
		}
		h := p.Hypothetical(warm, cores, b.DiskBandwidth)
		if rate := a.PredictRate(h); !math.IsInf(rate, 1) {
			c.CPUDemand = math.Max(c.CPUDemand, rate*a.Ceiling(h).CPUPerMinibatch)
		}
		// The knobs this phase sizes: below the cache for the fill epoch,
		// the rest for the steady state.
		knobs, stages := 0, 0
		for _, n := range a.Nodes {
			if n.Parallelizable && cached[n.Name] != warm {
				knobs += p.ParallelismFor(n.Name, n.Parallelism)
				stages++
			}
		}
		if limit := (cores+outer-1)/outer + stages - 1; stages > 0 && knobs > limit {
			c.Violations = append(c.Violations,
				fmt.Sprintf("core overcommit (warm=%v): %d workers per replica over %d stages > budget %d / %d replicas + stages - 1",
					warm, knobs, stages, cores, outer))
		}
	}
	if c.CPUDemand > float64(cores)*(1+1e-9) {
		c.Violations = append(c.Violations,
			fmt.Sprintf("core overcommit: planned CPU demand %.3f > budget %d", c.CPUDemand, cores))
	}
	if want := int(math.Ceil(c.CPUDemand - 1e-9)); p.CoresPlanned > cores || p.CoresPlanned != want {
		c.Violations = append(c.Violations,
			fmt.Sprintf("core overcommit: CoresPlanned %d, want ceil(demand %.3f) = %d within budget %d", p.CoresPlanned, c.CPUDemand, want, cores))
	}
	// No memory overcommit; no cache without a memory budget.
	if b.MemoryBytes <= 0 && p.CacheAbove != "" {
		c.Violations = append(c.Violations,
			fmt.Sprintf("cache %q planned with no memory budget", p.CacheAbove))
	}
	if b.MemoryBytes > 0 && p.CacheBytes*float64(outer) > float64(b.MemoryBytes)*(1+1e-9) {
		c.Violations = append(c.Violations,
			fmt.Sprintf("memory overcommit: %.0f bytes x %d replicas > %d budget",
				p.CacheBytes, outer, b.MemoryBytes))
	}
	// Finite, non-negative predictions.
	for name, v := range map[string]float64{
		"PredictedMinibatchesPerSec":     p.PredictedMinibatchesPerSec,
		"PredictedFillMinibatchesPerSec": p.PredictedFillMinibatchesPerSec,
		"Efficiency":                     p.Efficiency,
		"CacheBytes":                     p.CacheBytes,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			c.Violations = append(c.Violations, fmt.Sprintf("%s = %v not finite non-negative", name, v))
		}
	}
	// The planned program must validate.
	if err := res.Final.Validate(); err != nil {
		c.Violations = append(c.Violations, fmt.Sprintf("planned graph invalid: %v", err))
	}

	// Score plan and greedy reference with the same model.
	ph := ops.Hypothetical{
		Parallelism:      p.Parallelism,
		CacheAbove:       p.CacheAbove,
		WarmCache:        p.CacheAbove != "",
		OuterParallelism: p.OuterParallelism,
		Cores:            cores,
		DiskBandwidth:    b.DiskBandwidth,
		SourceBandwidth:  p.SourceBandwidth,
	}
	c.PlannerRate = a.PredictRate(ph)
	c.GreedyRate = greedyReference(a, b, cores)
	if math.IsInf(c.PlannerRate, 1) && math.IsInf(c.GreedyRate, 1) {
		c.RateInfinite = true
	}
	if c.Ratio() < 1-Epsilon {
		c.Violations = append(c.Violations,
			fmt.Sprintf("planner %.4g below (1-%.2f) x greedy %.4g", c.PlannerRate, Epsilon, c.GreedyRate))
	}
	// No bandwidth overcommit: the plan's modeled I/O demand at its own
	// predicted rate must fit the disk budget.
	if b.DiskBandwidth > 0 && !math.IsInf(c.PlannerRate, 1) {
		var io float64
		for _, n := range a.Nodes {
			if !cached[n.Name] {
				io += n.IOBytesPerMinibatch
			}
		}
		if c.PlannerRate*io > b.DiskBandwidth*(1+1e-6) {
			c.Violations = append(c.Violations,
				fmt.Sprintf("bandwidth overcommit: %.4g mb/s x %.0f B/mb > %.0f B/s budget",
					c.PlannerRate, io, b.DiskBandwidth))
		}
	}
	return c, nil
}

// decided is what a Result decides, as JSON: the plan, the program, its
// trail and the prediction.
func decided(r *plumber.Result) string {
	j, _ := json.Marshal([]any{r.Plan, r.Final, r.Trail, r.PredictedMinibatchesPerSec})
	return string(j)
}

// greedyReference is the retired two-phase baseline, evaluated at the
// model level: water-fill cores one at a time by marginal PredictRate
// gain, then add the single best cache that fits the memory budget at one
// replica. The joint solve must never lose to it by more than Epsilon.
func greedyReference(a *ops.Analysis, b plan.Budget, cores int) float64 {
	par := map[string]int{}
	used := 0
	for _, n := range a.Nodes {
		if n.Parallelizable {
			p := n.Parallelism
			if p < 1 {
				p = 1
			}
			par[n.Name] = p
			used += p
		}
	}
	score := func(cache string) float64 {
		return a.PredictRate(ops.Hypothetical{
			Parallelism:     par,
			CacheAbove:      cache,
			WarmCache:       cache != "",
			Cores:           cores,
			DiskBandwidth:   b.DiskBandwidth,
			SourceBandwidth: b.SourceBandwidth,
		})
	}
	// Phase one: cores.
	rate := score("")
	for used < cores {
		bestName, bestRate := "", rate
		for name := range par {
			par[name]++
			if r := score(""); r > bestRate*(1+1e-9) {
				bestName, bestRate = name, r
			}
			par[name]--
		}
		if bestName == "" {
			break
		}
		par[bestName]++
		used++
		rate = bestRate
	}
	// Phase two: the best cache that fits what's left of memory.
	best := rate
	for _, n := range a.Nodes {
		if !n.Cacheable || n.MaterializedBytes <= 0 || math.IsInf(n.MaterializedBytes, 1) {
			continue
		}
		if b.MemoryBytes <= 0 || n.MaterializedBytes > float64(b.MemoryBytes) {
			continue
		}
		if r := score(n.Name); r > best {
			best = r
		}
	}
	return best
}

// Minimize shrinks a failing spec: it applies one simplification at a
// time (drop the DAG shape, drop stages, flatten the skew, shrink the
// catalog), keeping each only if the case still fails, and returns the
// smallest still-failing case. Harness errors during shrinking abandon
// that step, never the original failure.
func Minimize(c *Case) *Case {
	fails := func(s scenario.Spec) *Case {
		got, err := CheckSpec(s, c.Budget)
		if err != nil || len(got.Violations) == 0 {
			return nil
		}
		got.Seed = c.Seed
		return got
	}
	cur := c
	for {
		shrunk := false
		for _, step := range shrinkSteps(cur.Spec) {
			if next := fails(step); next != nil {
				cur, shrunk = next, true
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// shrinkSteps proposes strictly simpler variants of the spec, most
// aggressive first.
func shrinkSteps(s scenario.Spec) []scenario.Spec {
	var out []scenario.Spec
	mut := func(f func(*scenario.Spec)) {
		v := s
		f(&v)
		v.Name = s.Name + "m" // distinct catalog per shrink candidate
		out = append(out, v)
	}
	if s.Shape != "" {
		mut(func(v *scenario.Spec) {
			v.Shape, v.AuxFiles, v.AuxRecordsPerFile, v.AuxMeanRecordBytes = "", 0, 0, 0
		})
	}
	if s.TotalFiles > 0 {
		mut(func(v *scenario.Spec) { v.TotalFiles = 0 })
	}
	if s.RandomAugment {
		mut(func(v *scenario.Spec) { v.RandomAugment, v.AugmentCPUPerElement = false, 0 })
	}
	if s.Device.TotalBandwidth > 0 {
		mut(func(v *scenario.Spec) { v.Device = connector.Device{} })
	}
	for _, f := range []func(*scenario.Spec){
		func(v *scenario.Spec) { v.ParseCPUPerElement = 0 },
		func(v *scenario.Spec) { v.TokenizeCPUPerElement = 0 },
		func(v *scenario.Spec) { v.DecodeCPUPerByte, v.DecodeCPUPerElement, v.DecodeAmplification = 0, 0, 0 },
		func(v *scenario.Spec) { v.FileSizeSkew = 0 },
	} {
		mut(f)
	}
	if s.Files > 1 {
		mut(func(v *scenario.Spec) { v.Files = s.Files / 2 })
	}
	if s.RecordsPerFile > 8 {
		mut(func(v *scenario.Spec) { v.RecordsPerFile = s.RecordsPerFile / 2 })
	}
	if s.MeanRecordBytes > 128 {
		mut(func(v *scenario.Spec) { v.MeanRecordBytes = s.MeanRecordBytes / 2 })
	}
	// Filter no-op mutations (a zero field stays zero).
	kept := out[:0]
	for _, v := range out {
		w := v
		w.Name = s.Name
		if fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", s) {
			kept = append(kept, v)
		}
	}
	return kept
}

// Report renders a failing case for humans: the minimized spec as JSON
// plus the violations, ready to paste into a regression test.
func Report(c *Case) string {
	spec, _ := json.MarshalIndent(c.Spec, "", "  ")
	budget, _ := json.Marshal(c.Budget)
	return fmt.Sprintf("seed %d violates:\n  %v\nminimized spec:\n%s\nbudget: %s",
		c.Seed, c.Violations, spec, budget)
}
