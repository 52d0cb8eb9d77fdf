// Package host implements Plumber's multi-tenant budget arbiter: N tenant
// pipelines sharing one physical resource envelope (a global plan.Budget of
// cores, cache memory, and disk bandwidth), arbitrated to maximize weighted
// aggregate throughput.
//
// The arbiter extends the paper's single-pipeline planner (§4.4's
// operational model, allocated against §5.2's resource ceilings) one level
// up.
// Each tenant is traced exactly once (the planner's whole point is that one
// trace suffices). Tenants admitted together are traced at once, in waves
// on equal shares of one engine.SharedPool, so each trace reads its rates
// under the contention its share will run under, and arbitrated once. The
// cross-tenant core split is solved by water-filling on every tenant's
// predicted rate curve — the marginal value
// of one more core for tenant t at share c is w_t·(X_t(c+1) − X_t(c)),
// where X_t is ops.PredictObservedRate evaluated on the plan that
// plan.Solve produces for that share — and cores are granted one at a time
// to the highest marginal bidder. Rate curves are min-of-linear-caps and
// hence concave, so the greedy grant sequence reaches the weighted
// water-filling optimum. Cache memory is split by marginal cache benefit
// (plan.SolveCacheDemand's benefit-per-byte, granted to the highest
// weighted bidders whose materialization actually fits — a tenant whose
// cache cannot fit its slice no longer wastes it); disk bandwidth is split
// by weighted water-filling on each tenant's storage ceiling — the tighter
// of its declared bandwidth and its connector's BandwidthHint — so a
// tenant on slow cold storage takes only what its backend can draw and the
// rest flows to tenants that can use it. Every tenant's program is
// materialized with rewrite.SolveShare under its memory and disk slices at
// the pool's full core width — the pool, not the program, holds a tenant to
// its guaranteed cores, and only while others contend — and is predicted at
// its guarantee. Adding or removing a tenant re-arbitrates without
// re-tracing incumbents.
//
// Arbitration alone is a calibrated prediction; RunConcurrent (run.go) is
// its validation: all tenant programs execute simultaneously on one
// engine.SharedPool with each tenant's in-flight workers capped at its
// arbitrated core share, and the report puts measured under-contention
// rates next to the predictions.
package host

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"plumber/internal/connector"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// Tenant is one pipeline sharing the arbitrated envelope, together with
// everything needed to trace it.
type Tenant struct {
	// Name identifies the tenant; must be unique within an Arbiter.
	Name string
	// Weight is the tenant's relative importance in the weighted aggregate
	// objective; zero and negative values mean 1.
	Weight float64
	// Graph is the tenant's pipeline program.
	Graph *pipeline.Graph
	// Source is the tenant's storage connector. Required. Any backend works
	// (the simfs adapter, local files, the modeled object store), and its
	// BandwidthHint participates in the arbiter's disk water-filling.
	Source connector.Connector
	// UDFs resolves the tenant's UDF names and randomness closure.
	UDFs *udf.Registry
	// Seed drives shuffles and randomized UDFs during the planning trace.
	Seed uint64
	// WorkScale converts modeled UDF CPU-seconds into accounted CPU time.
	WorkScale float64
	// Spin makes trace workers burn modeled CPU for real.
	Spin bool
	// MaxMinibatches is a hard cap on the planning trace's root elements;
	// 0 means none (the trace still stops once its example rate has settled).
	MaxMinibatches int64
	// DiskBandwidth is the tenant's own storage ceiling in bytes/second
	// (e.g. the simulated device's total bandwidth); 0 means unbounded.
	// The tenant's share is clamped to it, so a bandwidth-starved tenant is
	// never priced as if it could absorb cores its disk cannot feed.
	DiskBandwidth float64
}

// Share is one tenant's arbitrated slice of the global budget and the
// program materialized for it.
type Share struct {
	// Tenant and Weight echo the tenant this share belongs to.
	Tenant string  `json:"tenant"`
	Weight float64 `json:"weight"`
	// Budget is the tenant's slice of the global envelope; Budget.Cores is
	// its guaranteed worker-slot share of the pool.
	Budget plan.Budget `json:"budget"`
	// Plan is the one-shot allocation the program materializes: solved
	// under the slice's memory and disk, but at the pool's full core width,
	// so the program can use cores other tenants leave idle. Its predictions
	// are therefore for a pool the tenant has to itself.
	Plan *plan.Plan `json:"plan"`
	// Program is the ApplyPlan-materialized tenant pipeline.
	Program *pipeline.Graph `json:"program"`
	// Trail audits every knob change the share's plan materialized.
	Trail rewrite.Trail `json:"trail"`
	// ObservedMinibatchesPerSec is the tenant's rate from its one planning
	// trace (the pre-arbitration baseline shape).
	ObservedMinibatchesPerSec float64 `json:"observed_minibatches_per_sec"`
	// PredictedMinibatchesPerSec is the calibrated fill-epoch prediction of
	// the plan solved at the guaranteed cores (0 = not pipeline-bound): the
	// floor under full contention, which borrowing only adds to. The fill
	// epoch is the arbitration currency: a warm-cache steady state is
	// unbounded whenever a cache is planned and cannot price a share.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec"`
	// Run is what that one trace cost: trace_seconds of wall time, the
	// trace_root_completions before the cut, the trace_samples its stop rule
	// read, whether the rule cut it (settled; false = ran to EOF or to
	// MaxMinibatches), and where: trace_cut elements into trace_stage.
	trace.Run
}

// Decision is one arbitration outcome over the current tenant set.
type Decision struct {
	// Budget is the global envelope the shares partition.
	Budget plan.Budget `json:"budget"`
	// Shares holds one entry per tenant, in tenant-registration order.
	Shares []Share `json:"shares"`
	// PredictedAggregateMinibatchesPerSec sums every share's prediction.
	PredictedAggregateMinibatchesPerSec float64 `json:"predicted_aggregate_minibatches_per_sec"`
	// PredictedWeightedAggregate sums weight × prediction — the objective
	// the water-filling maximizes.
	PredictedWeightedAggregate float64 `json:"predicted_weighted_aggregate"`
	// EvenSplitPredictedAggregate is the same sum under a static 1/N split
	// of every resource — the baseline the arbiter must beat (or match) —
	// and EvenSplitPredictedWeightedAggregate its weighted counterpart.
	EvenSplitPredictedAggregate         float64 `json:"even_split_predicted_aggregate"`
	EvenSplitPredictedWeightedAggregate float64 `json:"even_split_predicted_weighted_aggregate"`
	// TracesUsed counts planning traces consumed so far across the
	// arbiter's lifetime (one per tenant, ever).
	TracesUsed int `json:"traces_used"`
}

// Arbiter owns the global budget and the tenant set. It is safe for
// concurrent use; arbitration is serialized.
type Arbiter struct {
	mu      sync.Mutex
	budget  plan.Budget
	tenants []*tenantState
	traces  int
}

type tenantState struct {
	Tenant
	analysis *ops.Analysis
}

// sourceHints maps the tenant's source Datasets to the connector's
// bandwidth hint, so plans model the source at the backend's actual speed.
// Nil when the backend reports no hint (unbounded), preserving the
// single-scalar model.
func (t *tenantState) sourceHints() map[string]float64 {
	hint := t.Source.BandwidthHint()
	if hint <= 0 || t.analysis == nil {
		return nil
	}
	var m map[string]float64
	for _, n := range t.analysis.Nodes {
		if n.IOBytesPerMinibatch > 0 {
			if m == nil {
				m = make(map[string]float64)
			}
			m[n.Name] = hint
		}
	}
	return m
}

// diskCap is the tenant's own storage ceiling: the tighter of its declared
// DiskBandwidth and the connector's bandwidth hint (0 = unbounded).
func (t *tenantState) diskCap() float64 {
	c := t.DiskBandwidth
	if h := t.Source.BandwidthHint(); h > 0 && (c <= 0 || h < c) {
		c = h
	}
	return c
}

// store identifies the storage the tenant reads: two simfs adapters over one
// filesystem are one store.
func (t *tenantState) store() any {
	if s, ok := t.Source.(*connector.SimFS); ok {
		return s.FS
	}
	return t.Source
}

// NewArbiter returns an arbiter over the global envelope, with no tenants:
// Add admits them, one at a time or several together. A non-positive core
// budget allocates against this machine's core count.
func NewArbiter(budget plan.Budget) *Arbiter {
	if budget.Cores <= 0 {
		budget.Cores = runtime.NumCPU()
	}
	return &Arbiter{budget: budget}
}

// Add traces the new tenants once each, admits them together, and
// re-arbitrates the whole set once; incumbents are not re-traced. It admits
// nobody when a name is missing or taken (within the batch too), the set
// would have fewer than one core per tenant, or any trace fails.
func (a *Arbiter) Add(ts ...Tenant) (*Decision, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("host: Add needs at least one tenant")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	taken := make(map[string]bool, len(a.tenants)+len(ts))
	for _, t := range a.tenants {
		taken[t.Name] = true
	}
	batch := make([]*tenantState, len(ts))
	for i, t := range ts {
		if t.Name == "" {
			return nil, fmt.Errorf("host: tenant needs a name")
		}
		if t.Graph == nil || t.Source == nil {
			return nil, fmt.Errorf("host: tenant %q needs a graph and a storage source", t.Name)
		}
		if taken[t.Name] {
			return nil, fmt.Errorf("host: tenant name %q is not unique", t.Name)
		}
		taken[t.Name] = true
		batch[i] = &tenantState{Tenant: t}
	}
	if len(taken) > a.budget.Cores {
		return nil, fmt.Errorf("host: %d tenants need at least one core each, budget has %d",
			len(taken), a.budget.Cores)
	}
	// A wave has one tenant per core at most, and no two readers of a store.
	width := min(a.budget.Cores, engine.SchedulableCores())
	for pending := batch; len(pending) > 0; {
		var wave, rest []*tenantState
		stores := make(map[any]bool)
		for _, t := range pending {
			if s := t.store(); len(wave) < width && !stores[s] {
				stores[s] = true
				wave = append(wave, t)
			} else {
				rest = append(rest, t)
			}
		}
		if err := a.traceWave(wave, width); err != nil {
			return nil, err
		}
		pending = rest
	}
	a.tenants = append(a.tenants, batch...)
	a.traces += len(batch)
	return a.arbitrateLocked()
}

// traceWave traces the wave's tenants concurrently. Two or more share one
// engine.SharedPool of width slots, the cores the traces can run on, at
// equal shares, so each trace sees the contention RunConcurrent will run it
// under; a wave of one runs alone. The first trace to fail cancels the rest.
func (a *Arbiter) traceWave(wave []*tenantState, width int) error {
	var pool *engine.SharedPool
	if len(wave) > 1 {
		pool = engine.NewSharedPool(width)
		for i, t := range wave {
			if err := pool.Admit(t.Name, evenShare(width, len(wave), i)); err != nil {
				return err
			}
		}
	}
	ctx := make(waveCtx)
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for _, t := range wave {
		wg.Add(1)
		go func(t *tenantState) {
			defer wg.Done()
			var err error
			if t.analysis, err = a.traceTenant(ctx, t, pool); err != nil {
				once.Do(func() {
					first = fmt.Errorf("host: trace tenant %q: %w", t.Name, err)
					close(ctx)
				})
			}
		}(t)
	}
	wg.Wait()
	return first
}

// waveCtx is the context a wave's traces share, closed when the first fails:
// a context.WithCancel would link all of package context's cancel tree.
type waveCtx chan struct{}

func (c waveCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c waveCtx) Done() <-chan struct{}       { return c }
func (c waveCtx) Value(any) any               { return nil }
func (c waveCtx) Err() error {
	select {
	case <-c:
		return context.Canceled
	default:
		return nil
	}
}

// evenShare is tenant i's core count when total cores split evenly n ways:
// the remainder goes one core each to the first tenants, so the split uses
// every core.
func evenShare(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// Remove evicts the named tenant and re-arbitrates the remainder. Removing
// the last tenant yields an empty decision.
func (a *Arbiter) Remove(name string) (*Decision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.tenants[:0]
	found := false
	for _, ts := range a.tenants {
		if ts.Name == name {
			found = true
			continue
		}
		kept = append(kept, ts)
	}
	if !found {
		return nil, fmt.Errorf("host: no tenant %q", name)
	}
	a.tenants = kept
	if len(a.tenants) == 0 {
		return &Decision{Budget: a.budget, TracesUsed: a.traces}, nil
	}
	return a.arbitrateLocked()
}

// weight returns the tenant's effective (defaulted) weight.
func (t *tenantState) weight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// shareBudget carves tenant t's slice of the envelope for a given core
// count, disk-bandwidth slice (from splitDiskLocked), and memory slice
// (from splitMemoryLocked) — all of which water-filling on cores takes as
// fixed. The tenant's connector bandwidth hint rides along as a per-source
// bound so plans model the source at the backend's actual speed.
func (a *Arbiter) shareBudget(t *tenantState, cores int, disk float64, memory int64) plan.Budget {
	return plan.Budget{
		Cores:           cores,
		MemoryBytes:     memory,
		DiskBandwidth:   disk,
		SourceBandwidth: t.sourceHints(),
	}
}

// splitDiskLocked partitions the global disk-bandwidth budget by weighted
// water-filling on each tenant's storage ceiling — the tighter of its
// declared DiskBandwidth and its connector's BandwidthHint — instead of
// blindly by weight: a tenant capped below its proportional slice (cold
// object storage behind a fast host) takes only its cap, and the freed
// bandwidth is re-split among tenants whose backends can actually draw it.
// With no global budget, each tenant is bounded only by its own ceiling
// (0 = unbounded).
func (a *Arbiter) splitDiskLocked(weightSum float64) []float64 {
	n := len(a.tenants)
	out := make([]float64, n)
	caps := make([]float64, n)
	for i, t := range a.tenants {
		caps[i] = t.diskCap()
	}
	total := a.budget.DiskBandwidth
	if total <= 0 {
		copy(out, caps)
		return out
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	remaining, remWeight := total, weightSum
	for {
		capped := false
		for i, t := range a.tenants {
			if !active[i] || caps[i] <= 0 {
				continue
			}
			if share := remaining * t.weight() / remWeight; share > caps[i] {
				out[i] = caps[i]
				remaining -= caps[i]
				remWeight -= t.weight()
				active[i] = false
				capped = true
			}
		}
		if !capped || remWeight <= 0 {
			break
		}
	}
	for i, t := range a.tenants {
		if active[i] && remWeight > 0 {
			out[i] = remaining * t.weight() / remWeight
		}
	}
	return out
}

// cacheFitSlack pads a granted memory slice a few percent above the
// demand's estimated materialization, so the tenant's own plan.Solve —
// recomputing the same estimate — is never rejected by rounding.
const cacheFitSlack = 1.05

// splitMemoryLocked partitions the global cache-memory budget by marginal
// cache benefit instead of raw weight: each tenant's cache appetite is
// priced with plan.SolveCacheDemand (benefit-per-byte at its cache point,
// evaluated at coreOf(i) cores — the demand's size depends on the core
// count, since plan.Solve raises outer parallelism with cores and every
// replica fills its own cache copy), and slices are granted to the highest
// weighted bidders whose materialization actually fits the remaining pool.
// A tenant whose cache cannot fit — or who has no legal cache point at all
// — cedes its would-be slice to tenants that can use it; whatever remains
// after all fitting demands are served is split by weight as headroom.
func (a *Arbiter) splitMemoryLocked(weightSum float64, disk []float64, coreOf func(i int) int) ([]int64, error) {
	n := len(a.tenants)
	mem := make([]int64, n)
	if a.budget.MemoryBytes <= 0 {
		return mem, nil
	}
	type demand struct {
		i     int
		bytes int64
		score float64
	}
	var demands []demand
	for i, t := range a.tenants {
		cores := coreOf(i)
		if cores < 1 {
			cores = 1
		}
		probe := plan.Budget{
			Cores:           cores,
			DiskBandwidth:   disk[i],
			SourceBandwidth: t.sourceHints(),
		}
		d, err := plan.SolveCacheDemand(t.analysis, probe)
		if err != nil {
			return nil, fmt.Errorf("host: cache demand for tenant %q: %w", t.Name, err)
		}
		if d.Bytes <= 0 {
			continue
		}
		score := d.BenefitPerByte
		if !math.IsInf(score, 1) {
			score *= t.weight()
		}
		demands = append(demands, demand{i: i, bytes: int64(math.Ceil(d.Bytes * cacheFitSlack)), score: score})
	}
	// Highest weighted benefit-per-byte first; ties keep registration order.
	sort.SliceStable(demands, func(x, y int) bool { return demands[x].score > demands[y].score })
	remaining := a.budget.MemoryBytes
	for _, d := range demands {
		if d.bytes <= remaining {
			mem[d.i] = d.bytes
			remaining -= d.bytes
		}
	}
	for i, t := range a.tenants {
		mem[i] += int64(float64(remaining) * t.weight() / weightSum)
	}
	return mem, nil
}

// predictedRate is X_t(c): the calibrated fill-epoch prediction for tenant
// t planned under c cores (and its fixed disk slice), solved without cache
// memory. Pricing must be cache-free on both axes: a warm-cache steady
// state is unbounded whenever a cache is planned (the tenant stops
// consuming the pipeline's resources at all), and the joint solver
// concentrates a cached plan's cores on the post-cache stages, so even its
// fill-epoch rate stops responding to extra cores. The cache-less solve
// prices what a core is worth to the running chain; memory is split
// separately by cache demand. +Inf still means the planned pipeline never
// binds; additional cores then have zero marginal value.
func (a *Arbiter) predictedRate(t *tenantState, share plan.Budget) (float64, error) {
	probe := share
	probe.MemoryBytes = 0
	p, err := plan.Solve(t.analysis, probe)
	if err != nil {
		return 0, err
	}
	return t.analysis.PredictObservedRate(
		p.Hypothetical(false, share.Cores, share.DiskBandwidth)), nil
}

func (a *Arbiter) arbitrateLocked() (*Decision, error) {
	n := len(a.tenants)
	if a.budget.Cores < n {
		return nil, fmt.Errorf("host: %d tenants need at least one core each, budget has %d", n, a.budget.Cores)
	}
	var weightSum float64
	for _, t := range a.tenants {
		weightSum += t.weight()
	}

	// Disk splits first: weighted water-filling over each tenant's storage
	// ceiling (declared bandwidth and connector hint), fixed for the rest
	// of the arbitration.
	disk := a.splitDiskLocked(weightSum)

	// Memory splits next, by marginal cache benefit priced at an even core
	// split; core water-filling below takes each tenant's memory slice as
	// fixed. (Memory barely moves the rate curves — the fill epoch that
	// prices cores runs with any planned cache still cold — so this
	// provisional split does not distort the core solution.)
	evenCores := a.budget.Cores / n
	mem, err := a.splitMemoryLocked(weightSum, disk, func(int) int { return evenCores })
	if err != nil {
		return nil, err
	}

	// Water-filling on cores: seed every tenant at one core, then grant the
	// remaining cores one at a time to the highest weighted marginal rate
	// gain. Rate evaluations are memoized per (tenant, cores).
	cores := make([]int, n)
	memo := make([]map[int]float64, n)
	rate := func(i, c int) (float64, error) {
		if memo[i] == nil {
			memo[i] = make(map[int]float64)
		}
		if v, ok := memo[i][c]; ok {
			return v, nil
		}
		v, err := a.predictedRate(a.tenants[i], a.shareBudget(a.tenants[i], c, disk[i], mem[i]))
		if err != nil {
			return 0, err
		}
		memo[i][c] = v
		return v, nil
	}
	for i := range cores {
		cores[i] = 1
	}
	// Rate curves are staircase-shaped at integer granularity: a tenant's
	// first extra core can be worthless (it only part-fills a water-filling
	// step) while two help, so single-core greedy would stall on the flat
	// step. Grants therefore go out in blocks: the (tenant, block) pair
	// with the best weighted average gain per core wins the whole block.
	for granted := n; granted < a.budget.Cores; {
		remaining := a.budget.Cores - granted
		best, bestBlock, bestAvg := -1, 0, 0.0
		for i, t := range a.tenants {
			cur, err := rate(i, cores[i])
			if err != nil {
				return nil, err
			}
			if math.IsInf(cur, 1) {
				continue // already unbounded: more cores are worthless
			}
			for h := 1; h <= remaining; h++ {
				next, err := rate(i, cores[i]+h)
				if err != nil {
					return nil, err
				}
				if math.IsInf(next, 1) {
					next = cur // an unbounded prediction cannot price the grant
				}
				if avg := t.weight() * (next - cur) / float64(h); avg > bestAvg {
					best, bestBlock, bestAvg = i, h, avg
				}
			}
		}
		if best < 0 {
			break // no tenant gains from any grant; leave the rest idle
		}
		cores[best] += bestBlock
		granted += bestBlock
	}

	// Re-split memory at the settled core counts: a tenant whose share grew
	// past the even-split probe may plan more outer-parallelism replicas
	// (each filling its own cache copy), and a slice sized at the probe
	// would silently fail the final plan's fit check — dedicated memory
	// wasted, which is exactly what the benefit-driven split exists to stop.
	mem, err = a.splitMemoryLocked(weightSum, disk, func(i int) int { return cores[i] })
	if err != nil {
		return nil, err
	}

	// A program sized to its guarantee could not use the cores a finished or
	// idle tenant leaves, so each is sized for the whole pool; the pool holds
	// it to its guarantee while others contend, and that is what is predicted.
	dec := &Decision{Budget: a.budget, TracesUsed: a.traces}
	for i, t := range a.tenants {
		share := a.shareBudget(t, cores[i], disk[i], mem[i])
		guarantee, err := plan.Solve(t.analysis, share)
		if err != nil {
			return nil, fmt.Errorf("host: solve share for tenant %q: %w", t.Name, err)
		}
		wide := share
		wide.Cores = a.budget.Cores
		program, trail, p, err := rewrite.SolveShare(t.analysis, wide)
		if err != nil {
			return nil, fmt.Errorf("host: solve share for tenant %q: %w", t.Name, err)
		}
		predicted := stats.FiniteOrZero(guarantee.PredictedFillMinibatchesPerSec)
		dec.Shares = append(dec.Shares, Share{
			Tenant:                     t.Name,
			Weight:                     t.weight(),
			Budget:                     share,
			Plan:                       p,
			Program:                    program,
			Trail:                      trail,
			ObservedMinibatchesPerSec:  stats.FiniteOrZero(t.analysis.ObservedRate),
			PredictedMinibatchesPerSec: predicted,
			Run:                        t.analysis.Snapshot.RunCost(),
		})
		dec.PredictedAggregateMinibatchesPerSec += predicted
		dec.PredictedWeightedAggregate += t.weight() * predicted
	}

	// Baseline: a static even split of every resource dimension. Cores
	// split by evenShare, in registration order, so the baseline uses the
	// whole budget — a baseline idling Cores%N cores would flatter the
	// arbitration for free.
	for i, t := range a.tenants {
		even := plan.Budget{
			Cores:           evenShare(a.budget.Cores, n, i),
			MemoryBytes:     a.budget.MemoryBytes / int64(n),
			DiskBandwidth:   a.budget.DiskBandwidth / float64(n),
			SourceBandwidth: t.sourceHints(),
		}
		if cap := t.diskCap(); cap > 0 && (even.DiskBandwidth == 0 || even.DiskBandwidth > cap) {
			even.DiskBandwidth = cap
		}
		r, err := a.predictedRate(a.tenants[i], even)
		if err != nil {
			return nil, fmt.Errorf("host: even-split baseline for tenant %q: %w", t.Name, err)
		}
		dec.EvenSplitPredictedAggregate += stats.FiniteOrZero(r)
		dec.EvenSplitPredictedWeightedAggregate += t.weight() * stats.FiniteOrZero(r)
	}
	return dec, nil
}

// traceTenant runs the tenant's one planning trace — the shared traced
// drain, cut where the rate of examples into the tenant's batch has
// settled — and operationalizes it at the cut. All reads go through
// the tenant's storage connector; its workers hold slots of pool, when
// there is one, and ctx cancels it.
func (a *Arbiter) traceTenant(ctx context.Context, t *tenantState, pool *engine.SharedPool) (*ops.Analysis, error) {
	snap, err := engine.TraceRun(t.Graph, engine.Options{
		FS:         t.Source,
		UDFs:       t.UDFs,
		WorkScale:  t.WorkScale,
		Spin:       t.Spin,
		Seed:       t.Seed,
		Pool:       pool,
		PoolTenant: t.Name,
		Context:    ctx,
	}, trace.Machine{Name: "host", Cores: a.budget.Cores}, t.MaxMinibatches, engine.Settled)
	if err != nil {
		return nil, err
	}
	// The analysis keeps its snapshot for the tenant's life, and nothing
	// here replays the stream its rule read: drop it.
	snap.Progress = nil
	return ops.Analyze(snap, t.UDFs)
}
