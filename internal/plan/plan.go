// Package plan implements Plumber's predictive one-shot planner: the
// LP-style extension (§4.4's operational model driven to an allocation,
// rather than a sequential tuner that re-traces after every remedy) that
// turns a single traced analysis plus a resource budget into a joint
// assignment of cores, cache memory, prefetching, and outer parallelism
// across every Dataset at once — with a predicted end-to-end rate, so no
// re-trace is needed per step.
//
// The solver is the paper's LP in closed form, solved jointly with cache
// placement: for every legal cache candidate (including none) it re-derives
// the post-cache rate curves — a warm cache idles the whole sub-graph it
// covers — sizes the knobs of the Datasets that remain active, and keeps the
// (cache, knobs) pair with the best predicted steady-state rate under the
// combined memory+core budget. Within one candidate the fractional optimum
// runs every Dataset at the resource ceiling X, where Dataset i claims
// θ_i = X/R_i of a core and Σ θ_i is at most the core budget; the integral
// plan rounds each claim up to whole workers (solveForCache). Outer
// parallelism is raised only when a fundamentally sequential Dataset caps
// the pipeline below the resource ceiling.
package plan

import (
	"fmt"
	"math"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
)

// Budget is the resource envelope the planner allocates against (the
// plumber façade aliases this type): the paper's nc cores, memory for
// caches, and disk bandwidth.
type Budget struct {
	// Cores bounds the planned CPU demand, Σ X/R_i over every replica's
	// Datasets (the paper's Σ θ_i <= nc). Zero allocates against the traced
	// machine's core count instead — like the paper's nc-core tuner —
	// falling back to a 64-core safety cap when that is unknown too.
	Cores int `json:"cores"`
	// MemoryBytes bounds cache materialization; zero disables caching.
	MemoryBytes int64 `json:"memory_bytes"`
	// DiskBandwidth is available read bandwidth in bytes/second; zero means
	// unbounded (in-memory source).
	DiskBandwidth float64 `json:"disk_bandwidth,omitempty"`
	// SourceBandwidth bounds individual source Datasets (by name) in
	// bytes/second — the storage connector's bandwidth hint, tighter than
	// (or instead of) the global DiskBandwidth for that source. Nil keeps
	// the single-scalar model.
	SourceBandwidth map[string]float64 `json:"source_bandwidth,omitempty"`
}

// Plan is one joint allocation: every knob the planner would set, plus the
// predicted throughput of the planned shape. Rate fields encode "no finite
// model bound" (the pipeline is predicted to stop being the bottleneck) as
// 0, since JSON cannot carry +Inf.
type Plan struct {
	// Parallelism is the planned knob value for every parallelizable
	// Dataset: the ceiling of its CPU claim at the planned rate, at least 1
	// (absent nodes keep their current value).
	Parallelism map[string]int `json:"parallelism"`
	// CacheAbove names the Dataset whose output the plan materializes in a
	// new cache; empty means no cache is planned.
	CacheAbove string `json:"cache_above,omitempty"`
	// CacheBytes is the projected materialization (n_i × b_i) of the chosen
	// cache point, per pipeline replica.
	CacheBytes float64 `json:"cache_bytes,omitempty"`
	// PrefetchBuffer, when positive, plans a root prefetch of that depth.
	PrefetchBuffer int `json:"prefetch_buffer,omitempty"`
	// OuterParallelism is the planned whole-pipeline replica count (0 and 1
	// both mean a single instance).
	OuterParallelism int `json:"outer_parallelism,omitempty"`

	// CoresPlanned is the ceiling of the planned CPU demand: the planned
	// rate times the core-seconds a minibatch costs (ops.Ceiling), over all
	// replicas, in the busier of the steady state and the fill epoch. It
	// never exceeds the budget's core count. The knob total can — each knob
	// rounds a fractional claim up — by at most (parallel stages − 1) per
	// replica among the stages sized together.
	CoresPlanned int `json:"cores_planned"`
	// Efficiency is the observed/modeled calibration factor measured on the
	// planning trace; predictions below are already scaled by it.
	Efficiency float64 `json:"efficiency"`
	// PredictedMinibatchesPerSec is the calibrated steady-state prediction
	// for the planned shape under the budget (warm cache, if one is
	// planned). 0 encodes an unbounded model: the planned pipeline is not
	// predicted to limit the consumer.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// PredictedFillMinibatchesPerSec is the calibrated first-epoch
	// prediction (cache still filling) — what the first epoch of a job
	// running the planned shape should show.
	PredictedFillMinibatchesPerSec float64 `json:"predicted_fill_minibatches_per_sec,omitempty"`
	// SourceBandwidth echoes the budget's per-source bandwidth hints the
	// plan was solved under, so Hypothetical predictions reuse them.
	SourceBandwidth map[string]float64 `json:"source_bandwidth,omitempty"`
	// Notes is the human-readable allocation rationale, one line per
	// decision.
	Notes []string `json:"notes,omitempty"`
}

// ParallelismFor returns the planned knob for the named node, or def when
// the plan leaves it alone.
func (p *Plan) ParallelismFor(name string, def int) int {
	if v, ok := p.Parallelism[name]; ok && v > 0 {
		return v
	}
	return def
}

// Hypothetical converts the plan into the ops what-if shape it predicts,
// bounded by cores physical CPU cores (pass the deployment budget for a
// deployment prediction, or this host's core count for a prediction a
// local run should reproduce).
func (p *Plan) Hypothetical(warm bool, cores int, diskBandwidth float64) ops.Hypothetical {
	return ops.Hypothetical{
		Parallelism:      p.Parallelism,
		CacheAbove:       p.CacheAbove,
		WarmCache:        warm,
		OuterParallelism: p.OuterParallelism,
		Cores:            cores,
		DiskBandwidth:    diskBandwidth,
		SourceBandwidth:  p.SourceBandwidth,
	}
}

// solveCaps bounds the solver's search when the budget leaves a dimension
// unbounded.
const (
	unboundedCores = 64
	maxOuter       = 16
	prefetchDepth  = 8
)

// alloc is one candidate joint solution: a cache choice (possibly none)
// with the knobs sized for the rate it plans, and the uncalibrated
// steady-state rate the pair predicts.
type alloc struct {
	cacheAbove  string
	cacheBytes  float64
	parallelism map[string]int
	outer       int
	demand      float64 // planned CPU claim in cores, all replicas, at its busiest phase
	rate        float64
	notes       []string
}

// solveForCache plans the knobs assuming a cache above cacheAbove (empty =
// no cache). Returns nil when the candidate cache does not fit the memory
// budget at any replica count.
//
// Cores are accounted by CPU demand, as in the paper's LP (§4.4): a stage
// whose replica delivers x minibatches/s claims x/R_i of a core, the budget
// bounds the sum of the claims (ops.Ceiling's work-conservation bound), and
// each knob is the ceiling of its stage's claim with a floor of one worker.
// The planned rate is therefore the ceiling itself — the knobs are sized to
// reach it, not granted until a whole-core count runs out — and the knob
// total of the stages sized together exceeds the per-replica budget by at
// most (stages − 1), the rounding.
//
// A warm cache idles the whole sub-graph it covers, so the job has two
// phases that never overlap and each may claim the whole budget: the
// Datasets that stay active are sized for the steady state, the covered
// ones for the fill epoch (all Datasets running, once), whose rate the
// active ones — sized for the faster steady state — already clear.
func solveForCache(a *ops.Analysis, b Budget, cores int, cacheAbove string) *alloc {
	var cached map[string]bool
	var cacheBytes float64
	if cacheAbove != "" {
		cached, _ = a.AtOrBelow(cacheAbove)
		if n, err := a.Node(cacheAbove); err == nil {
			cacheBytes = n.MaterializedBytes
		}
	}
	hyp := ops.Hypothetical{
		CacheAbove:      cacheAbove,
		Cores:           cores,
		DiskBandwidth:   b.DiskBandwidth,
		SourceBandwidth: b.SourceBandwidth,
	}
	fill := a.Ceiling(hyp)
	steady := fill
	if cacheAbove != "" {
		hyp.WarmCache = true
		steady = a.Ceiling(hyp)
	}

	// Outer parallelism: replication is the only remedy for a sequential
	// bound (§5.1's NLP pipelines). maxNeed is the replica count that would
	// lift the sequential capacity to the resource ceiling — the top of the
	// search range, not a commitment: each replica also multiplies the
	// cache's memory footprint and divides the rate (and so the knob) each
	// stage is sized for. The pass below scores every count and keeps the
	// best.
	baseOuter := a.Snapshot.Graph.OuterParallelism
	if baseOuter < 1 {
		baseOuter = 1
	}
	maxNeed := baseOuter
	if steady.Sequential < steady.Resource && !math.IsInf(steady.Resource, 1) {
		// A sequential Dataset running flat out is one busy core per replica
		// and the resource ceiling counts it, so need never exceeds the core
		// budget; the caps only guard a degenerate (zero-capacity) trace.
		need := math.Min(math.Ceil(steady.Resource/steady.Sequential), math.Min(float64(cores), maxOuter))
		if int(need) > maxNeed {
			maxNeed = int(need)
		}
	}

	allocAt := func(outer int) *alloc {
		s := &alloc{cacheAbove: cacheAbove, cacheBytes: cacheBytes, outer: outer, parallelism: make(map[string]int)}
		if outer > baseOuter {
			s.notes = append(s.notes, fmt.Sprintf(
				"outer parallelism %d: sequential %q (%.1f minibatches/s) caps the pipeline below the resource ceiling (%.1f)",
				outer, steady.SequentialNode, steady.Sequential, steady.Resource))
		}

		// Every replica fills its own cache copy; a candidate that cannot fit
		// the memory budget at this replica count is no candidate at all.
		if cacheAbove != "" {
			if !(s.cacheBytes > 0) || math.IsInf(s.cacheBytes, 1) ||
				s.cacheBytes*float64(outer) > float64(b.MemoryBytes) {
				return nil
			}
		}

		// size sets the knob of every parallelizable Dataset of one phase
		// (covered by the cache, or not) for the rate that phase's ceiling
		// allows. A Dataset with no measurable cost claims nothing the model
		// can see: its knob keeps the traced value rather than churn, unless
		// that breaks the bound the measured knobs hold by construction —
		// knob total <= per-replica budget + stages - 1 — and is then degraded.
		size := func(c ops.Ceiling, covered bool, phase string) {
			x := math.Min(c.Resource, c.Sequential*float64(outer))
			if !math.IsInf(x, 1) {
				s.demand = math.Max(s.demand, x*c.CPUPerMinibatch)
			}
			var unmeasured []string
			spare := (cores+outer-1)/outer - 1 // workers beyond one per stage the bound still allows
			for _, n := range a.Nodes {
				if !n.Parallelizable || cached[n.Name] != covered {
					continue
				}
				p := max(1, n.Parallelism)
				if !n.Measurable() || math.IsInf(x, 1) {
					unmeasured = append(unmeasured, n.Name)
				} else {
					claim := x / float64(outer) / n.Rate
					p = max(1, int(math.Ceil(claim-1e-9)))
					if cur, err := a.Snapshot.Graph.Node(n.Name); err == nil && cur.EffectiveParallelism() != p {
						s.notes = append(s.notes, fmt.Sprintf(
							"parallelism %q: %d -> %d (%.1f minibatches/s/core claims %.2f cores at the %s ceiling, %.1f)",
							n.Name, cur.EffectiveParallelism(), p, n.Rate, claim, phase, x))
					}
				}
				s.parallelism[n.Name] = p
				spare -= p - 1
			}
			for _, name := range unmeasured {
				if prev := s.parallelism[name]; spare < 0 && prev > 1 {
					p := max(1, prev+spare)
					s.parallelism[name], spare = p, spare+prev-p
					s.notes = append(s.notes, fmt.Sprintf(
						"parallelism %q degraded %d -> %d (unmeasured knob, %d-core budget binds)", name, prev, p, cores))
				}
			}
		}
		size(steady, false, "steady-state")
		if cacheAbove != "" {
			size(fill, true, "fill-epoch")
		}

		hyp.Parallelism, hyp.OuterParallelism = s.parallelism, outer
		s.rate = a.PredictRate(hyp)
		return s
	}

	// Score every replica count from one to maxNeed and keep the best
	// rate. Ties prefer the graph's current count (a rate-neutral plan
	// should not churn a live deployment's replicas), then fewer replicas
	// (ascending order: the incumbent wins ties).
	var best *alloc
	for o := 1; o <= maxNeed; o++ {
		s := allocAt(o)
		if s == nil {
			continue
		}
		if best == nil || s.rate > best.rate ||
			(s.rate == best.rate && o == baseOuter && best.outer != baseOuter) {
			best = s
		}
	}
	return best
}

// Solve computes the joint allocation for the analyzed pipeline under the
// budget in one shot. The returned plan is advisory: materialize it with
// rewrite.ApplyPlan and hold the job that runs it against its predictions.
func Solve(a *ops.Analysis, b Budget) (*Plan, error) {
	if len(a.Nodes) == 0 {
		return nil, fmt.Errorf("plan: analysis has no nodes")
	}
	cores := b.Cores
	if cores <= 0 {
		cores = a.Snapshot.Machine.Cores
	}
	if cores <= 0 {
		cores = unboundedCores
	}
	g := a.Snapshot.Graph
	p := &Plan{SourceBandwidth: b.SourceBandwidth}

	// Joint search over (cache placement, core assignment): solve the core
	// water-filling once per legal cache candidate — on the rate curves that
	// remain after that cache warms — and keep the best predicted rate. A
	// cache must strictly beat the no-cache allocation to justify its
	// memory; among equal cache candidates the most-downstream one wins
	// (skipping the longest sub-graph, in topological order).
	hasCache := false
	for _, n := range g.Nodes {
		if n.Kind == pipeline.KindCache {
			hasCache = true
		}
	}
	base := solveForCache(a, b, cores, "")
	best := base
	if b.MemoryBytes > 0 && !hasCache {
		for _, n := range a.Nodes {
			if !n.Cacheable || !(n.MaterializedBytes > 0) || math.IsInf(n.MaterializedBytes, 1) {
				continue
			}
			s := solveForCache(a, b, cores, n.Name)
			if s == nil {
				continue
			}
			if s.rate > base.rate && s.rate >= best.rate {
				best = s
			}
		}
	}

	p.Parallelism = best.parallelism
	p.CacheAbove = best.cacheAbove
	p.OuterParallelism = best.outer
	p.Notes = append(p.Notes, best.notes...)
	if best.cacheAbove != "" {
		p.CacheBytes = best.cacheBytes
		p.Notes = append(p.Notes, fmt.Sprintf(
			"cache above %q: %.0f bytes/replica within the %d-byte budget; joint solve predicts %.1f minibatches/s warm vs %.1f without a cache",
			p.CacheAbove, p.CacheBytes, b.MemoryBytes, best.rate, base.rate))
	}
	// The claim is at most the budget by construction (the planned rate
	// never exceeds the work-conservation bound); min guards the rounding.
	p.CoresPlanned = int(math.Min(float64(cores), math.Ceil(best.demand-1e-9)))

	// Prefetch: always decouple the consumer at the root, once.
	if root, err := g.Node(g.Output); err == nil && root.Kind != pipeline.KindPrefetch {
		p.PrefetchBuffer = prefetchDepth
		p.Notes = append(p.Notes, fmt.Sprintf(
			"prefetch(%d) at the root to overlap production with consumption", prefetchDepth))
	}

	// Predictions, calibrated by the planning trace's observed efficiency.
	p.Efficiency = stats.FiniteOrZero(a.Efficiency(cores, b.DiskBandwidth, b.SourceBandwidth))
	p.PredictedMinibatchesPerSec = stats.FiniteOrZero(
		a.PredictObservedRate(p.Hypothetical(true, cores, b.DiskBandwidth)))
	p.PredictedFillMinibatchesPerSec = stats.FiniteOrZero(
		a.PredictObservedRate(p.Hypothetical(false, cores, b.DiskBandwidth)))
	return p, nil
}

// CacheDemand is a pipeline's answer to "how much cache memory could you
// actually use, and what would it buy?" — the currency the multi-tenant
// arbiter splits Budget.MemoryBytes in. A zero demand (Bytes == 0) means no
// legal cache point exists, so memory granted to this pipeline is wasted.
type CacheDemand struct {
	// Above names the cache point the demand prices (the same choice Solve
	// would make with unlimited memory).
	Above string
	// Bytes is the total materialization the cache needs — per-replica bytes
	// times the planned replica count — i.e. the memory slice that makes the
	// cache fit.
	Bytes float64
	// BenefitPerByte is the predicted steady-state rate gain per
	// materialized byte (minibatches/s/byte). +Inf when the warm cache lifts
	// the model's ceiling entirely; 0 when the cache only saves CPU work
	// (Solve's work-saved fallback) without lifting the predicted ceiling.
	BenefitPerByte float64
}

// SolveCacheDemand prices the analyzed pipeline's cache appetite under a
// core/disk share by solving the plan with the memory dimension unlimited
// and measuring the chosen cache point's predicted benefit per byte — the
// same benefit-per-byte ranking Solve's cache placement uses, exposed so
// the arbiter can water-fill memory across tenants by marginal value
// instead of splitting it blindly by weight.
func SolveCacheDemand(a *ops.Analysis, b Budget) (CacheDemand, error) {
	unlimited := b
	unlimited.MemoryBytes = math.MaxInt64
	p, err := Solve(a, unlimited)
	if err != nil {
		return CacheDemand{}, err
	}
	if p.CacheAbove == "" || !(p.CacheBytes > 0) {
		return CacheDemand{}, nil
	}
	outer := p.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	cores := b.Cores
	if cores <= 0 {
		cores = a.Snapshot.Machine.Cores
	}
	if cores <= 0 {
		cores = unboundedCores
	}
	d := CacheDemand{Above: p.CacheAbove, Bytes: p.CacheBytes * float64(outer)}
	base := a.PredictRate(ops.Hypothetical{
		Parallelism:      p.Parallelism,
		OuterParallelism: outer,
		Cores:            cores,
		DiskBandwidth:    b.DiskBandwidth,
		SourceBandwidth:  b.SourceBandwidth,
	})
	warm := a.PredictRate(ops.Hypothetical{
		Parallelism:      p.Parallelism,
		CacheAbove:       p.CacheAbove,
		WarmCache:        true,
		OuterParallelism: outer,
		Cores:            cores,
		DiskBandwidth:    b.DiskBandwidth,
		SourceBandwidth:  b.SourceBandwidth,
	})
	switch {
	case math.IsInf(warm, 1) && !math.IsInf(base, 1):
		d.BenefitPerByte = math.Inf(1)
	case warm > base:
		d.BenefitPerByte = (warm - base) / d.Bytes
	}
	return d, nil
}
