package host

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/plan"
	"plumber/internal/trace"
)

// RunOptions configures one concurrent measured run (Arbiter.RunConcurrent).
type RunOptions struct {
	// MaxMinibatches bounds each tenant's drain; 0 drains one full pass of
	// the tenant's (finite) program.
	MaxMinibatches int64
	// Spin makes workers burn modeled UDF CPU for real, so measured
	// wallclock rates reflect the cost model under genuine contention. A
	// tenant whose own Spin flag is set spins regardless.
	Spin bool
	// Traced attaches a tenant-labeled collector to every pipeline; the
	// report then carries one independently attributable snapshot per
	// tenant (RunReport.Snapshots).
	Traced bool
	// Retry is the engine's fault-absorption policy, applied to every
	// tenant pipeline (source opens, record reads, UDF invocations). The
	// zero value disables retries.
	Retry engine.Retry
	// WatchdogInterval is the per-tenant progress-check period. A tenant
	// that produces no root element for WatchdogStallIntervals consecutive
	// checks is declared stalled: its pipeline is canceled, its pool slots
	// reclaimed, and its share re-water-filled across survivors. Zero
	// defaults to 500ms; negative disables the watchdog.
	WatchdogInterval time.Duration
	// WatchdogStallIntervals is the consecutive no-progress check count
	// that trips the watchdog (default 10).
	WatchdogStallIntervals int
}

// TenantStatus classifies one tenant's outcome in a concurrent run.
type TenantStatus string

const (
	// StatusOK: the tenant drained cleanly with no faults absorbed.
	StatusOK TenantStatus = "ok"
	// StatusDegraded: the tenant drained cleanly, but only because the
	// retry policy absorbed transient faults along the way.
	StatusDegraded TenantStatus = "degraded"
	// StatusStalled: the watchdog saw no progress for the configured
	// window; the tenant was canceled and its share reclaimed.
	StatusStalled TenantStatus = "stalled"
	// StatusFailed: the tenant's drain surfaced an error (or its program
	// panicked); its share was reclaimed.
	StatusFailed TenantStatus = "failed"
)

// ReclaimEvent audits one failure-isolation reclaim: which tenant lost its
// share, why, and where the freed cores went.
type ReclaimEvent struct {
	// Tenant is the evicted tenant.
	Tenant string `json:"tenant"`
	// Reason is "failed" or "stalled".
	Reason string `json:"reason"`
	// AtSeconds is the reclaim time as an offset from run start.
	AtSeconds float64 `json:"at_seconds"`
	// FreedCores is the guaranteed share returned to the pool.
	FreedCores int `json:"freed_cores"`
	// Regrants maps each surviving tenant to the extra guaranteed cores it
	// received from the re-water-fill of the freed share.
	Regrants map[string]int `json:"regrants,omitempty"`
}

// MeasuredShare is one tenant's outcome from a concurrent run: the share it
// was promised, the rate the arbiter predicted, and what it measurably
// received while every other tenant was running against it.
type MeasuredShare struct {
	// Tenant and ShareCores echo the arbitrated share.
	Tenant     string `json:"tenant"`
	ShareCores int    `json:"share_cores"`
	// Status classifies the outcome (ok / degraded / stalled / failed) and
	// Failure carries the error or stall description for bad outcomes.
	Status  TenantStatus `json:"status"`
	Failure string       `json:"failure,omitempty"`
	// PredictedMinibatchesPerSec is the arbiter's calibrated fill-epoch
	// prediction for this share (0 = not pipeline-bound).
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec"`
	// MeasuredMinibatchesPerSec and MeasuredExamplesPerSec are the tenant's
	// under-contention drain rates (root elements and examples over the
	// tenant's own elapsed wallclock).
	MeasuredMinibatchesPerSec float64 `json:"measured_minibatches_per_sec"`
	MeasuredExamplesPerSec    float64 `json:"measured_examples_per_sec"`
	// Minibatches, Examples, and Seconds are the raw drain counts and the
	// tenant's elapsed wallclock.
	Minibatches int64   `json:"minibatches"`
	Examples    int64   `json:"examples"`
	Seconds     float64 `json:"seconds"`
	// Retries, Errors, and GaveUp aggregate the tenant pipeline's
	// fault-handling outcomes (per-stage attribution is in the snapshot).
	Retries int64 `json:"retries,omitempty"`
	Errors  int64 `json:"errors,omitempty"`
	GaveUp  int64 `json:"gave_up,omitempty"`
	// HeldCoreSeconds is slot-hold time from the shared pool — the cores
	// the tenant actually occupied — and HeldShareFraction its fraction of
	// all tenants' held time, directly comparable to ShareCores over the
	// pool capacity.
	HeldCoreSeconds   float64 `json:"held_core_seconds"`
	HeldShareFraction float64 `json:"held_share_fraction"`
	// SequentialHeldCoreSeconds is the subset of HeldCoreSeconds accrued by
	// the tenant's consumer-side sequential stages (inline UDF/shuffle/batch)
	// under pool admission; nonzero confirms the tenant's sequential work
	// is charged against its share rather than running ungated.
	SequentialHeldCoreSeconds float64 `json:"sequential_held_core_seconds,omitempty"`
	// PeakWorkers above ShareCores is work-conserving borrowing in action
	// (another tenant idled); Borrows counts slot grants beyond the share.
	PeakWorkers int   `json:"peak_workers"`
	Borrows     int64 `json:"borrows"`
}

// RunReport is the outcome of one concurrent run: every tenant's measured
// share next to the arbiter's predictions — the contention experiment that
// turns an arbitration from a planning exercise into a validated schedule.
// A tenant that fails or stalls does not abort the run: it is reported with
// its status, its share is reclaimed, and the survivors keep going.
type RunReport struct {
	// Budget echoes the global envelope of the decision the run validated.
	Budget plan.Budget `json:"budget"`
	// Tenants holds one measured share per tenant, in decision order.
	Tenants []MeasuredShare `json:"tenants"`
	// MeasuredAggregateMinibatchesPerSec sums the per-tenant measured
	// rates; PredictedAggregateMinibatchesPerSec sums the arbiter's
	// fill-epoch predictions for the same shares.
	MeasuredAggregateMinibatchesPerSec  float64 `json:"measured_aggregate_minibatches_per_sec"`
	PredictedAggregateMinibatchesPerSec float64 `json:"predicted_aggregate_minibatches_per_sec"`
	// SurvivorAggregateMinibatchesPerSec sums measured rates over tenants
	// that finished ok or degraded — the graceful-degradation headline.
	SurvivorAggregateMinibatchesPerSec float64 `json:"survivor_aggregate_minibatches_per_sec"`
	// WallSeconds is the whole run's wallclock (first launch to last EOF).
	WallSeconds float64 `json:"wall_seconds"`
	// Reclaims audits every failure-isolation reclaim, in order.
	Reclaims []ReclaimEvent `json:"reclaims,omitempty"`
	// Snapshots carries one tenant-labeled trace per tenant when
	// RunOptions.Traced is set; keyed by tenant name.
	Snapshots map[string]*trace.Snapshot `json:"snapshots,omitempty"`
}

// runner pairs one arbitrated share with its instantiated pipeline and the
// drain outcome its goroutine records. progress is read by the watchdog;
// status, failure, extraCores, and finished are guarded by runCtl.mu.
type runner struct {
	share    Share
	pipeline *engine.Pipeline
	col      *trace.Collector

	progress atomic.Int64

	status     TenantStatus // "" while running
	failure    string
	extraCores int
	finished   bool

	elements int64
	examples int64
	seconds  float64
}

// drain pulls up to max root elements with panic containment: a panicking
// tenant program (a bad UDF on the consumer path, a poisoned element) is
// converted into an error and isolated to its own tenant instead of
// crashing the whole run. Worker-side UDF panics are already contained by
// the engine.
func (r *runner) drain(max int64) (elements, examples int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("tenant program panicked: %v", p)
		}
	}()
	for max <= 0 || elements < max {
		e, nerr := r.pipeline.Next()
		if nerr == io.EOF {
			return elements, examples, nil
		}
		if nerr != nil {
			return elements, examples, nerr
		}
		elements++
		examples += int64(e.Count)
		r.progress.Add(1)
		r.pipeline.Recycle(e)
	}
	return elements, examples, nil
}

// runCtl coordinates failure isolation during one concurrent run: tenant
// completions, watchdog stall declarations, pool reclaims, and the
// re-water-fill of freed shares across survivors.
type runCtl struct {
	a      *Arbiter
	pool   *engine.SharedPool
	byName map[string]*tenantState
	start  time.Time

	mu       sync.Mutex
	runners  []*runner
	reclaims []ReclaimEvent
}

// finish records a tenant's drain outcome. Failed tenants have their share
// reclaimed and redistributed; a tenant the watchdog already declared
// stalled keeps that status (its drain error is just the cancellation
// surfacing). The pipeline is closed except for stalled tenants, whose
// wedged workers would make Close wait forever — those pipelines stay
// canceled-but-unclosed, leaking only their own contained goroutines.
func (c *runCtl) finish(r *runner, err error) {
	c.mu.Lock()
	stalled := r.status == StatusStalled
	if !stalled {
		if err != nil {
			r.status = StatusFailed
			r.failure = err.Error()
			c.reclaimLocked(r, "failed")
		} else {
			r.status = StatusOK // may be refined to degraded from ErrorStats
		}
	}
	r.finished = true
	c.mu.Unlock()
	if !stalled {
		r.pipeline.Close()
	}
}

// markStalled is the watchdog's verdict: cancel the tenant and reclaim its
// share. No-op if the tenant finished (or was already marked) in the
// meantime.
func (c *runCtl) markStalled(r *runner, window time.Duration) {
	c.mu.Lock()
	if r.finished || r.status != "" {
		c.mu.Unlock()
		return
	}
	r.status = StatusStalled
	r.failure = fmt.Sprintf("watchdog: no progress for %s", window)
	c.reclaimLocked(r, "stalled")
	c.mu.Unlock()
	r.pipeline.Cancel()
}

// reclaimLocked evicts the tenant from the pool and re-water-fills the
// freed guaranteed cores across surviving tenants, recording the audit
// event. Caller holds c.mu.
func (c *runCtl) reclaimLocked(r *runner, reason string) {
	freed := c.pool.Evict(r.share.Tenant)
	ev := ReclaimEvent{
		Tenant:     r.share.Tenant,
		Reason:     reason,
		AtSeconds:  time.Since(c.start).Seconds(),
		FreedCores: freed,
	}
	if freed > 0 {
		ev.Regrants = c.regrantLocked(freed)
	}
	c.reclaims = append(c.reclaims, ev)
}

// regrantLocked redistributes freed guaranteed cores across tenants that
// are still running, one core at a time to the survivor with the highest
// weighted marginal predicted gain — the same water-filling objective the
// original arbitration maximized, re-run at reduced scope on the already
// calibrated rate curves. When no survivor shows a finite positive gain
// (every rate curve is flat or unpriceable), cores round-robin to the
// least-granted survivors, staying work-conserving. Caller holds c.mu.
func (c *runCtl) regrantLocked(freed int) map[string]int {
	type cand struct {
		r  *runner
		ts *tenantState
	}
	var cands []cand
	for _, r := range c.runners {
		if r.status != "" || r.finished {
			continue
		}
		ts, ok := c.byName[r.share.Tenant]
		if !ok {
			continue
		}
		cands = append(cands, cand{r: r, ts: ts})
	}
	if len(cands) == 0 {
		return nil
	}
	marginal := func(cd cand) float64 {
		cores := cd.r.share.Budget.Cores + cd.r.extraCores
		b := cd.r.share.Budget
		b.Cores = cores
		cur, err1 := c.a.predictedRate(cd.ts, b)
		b.Cores = cores + 1
		next, err2 := c.a.predictedRate(cd.ts, b)
		if err1 != nil || err2 != nil || math.IsInf(cur, 1) || math.IsInf(next, 1) {
			return 0
		}
		return (next - cur) * cd.ts.weight()
	}
	grants := make(map[string]int)
	for g := 0; g < freed; g++ {
		best, bestGain := -1, 0.0
		for i, cd := range cands {
			gain := marginal(cd)
			if best == -1 || gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if bestGain <= 0 {
			// Flat curves: hand the core to the least-granted survivor.
			for i, cd := range cands {
				if best == -1 || cd.r.extraCores < cands[best].r.extraCores {
					best = i
				}
			}
		}
		cd := cands[best]
		if err := c.pool.Grow(cd.r.share.Tenant, 1); err != nil {
			break // capacity raced away (another reclaim); stop regranting
		}
		cd.r.extraCores++
		grants[cd.r.share.Tenant]++
	}
	return grants
}

// watch runs the per-tenant progress watchdog until stop closes.
func (c *runCtl) watch(interval time.Duration, stallIntervals int, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := make([]int64, len(c.runners))
	stale := make([]int, len(c.runners))
	window := time.Duration(stallIntervals) * interval
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		for i, r := range c.runners {
			c.mu.Lock()
			live := !r.finished && r.status == ""
			c.mu.Unlock()
			if !live {
				continue
			}
			cur := r.progress.Load()
			if cur != last[i] {
				last[i], stale[i] = cur, 0
				continue
			}
			if stale[i]++; stale[i] >= stallIntervals {
				c.markStalled(r, window)
				stale[i] = 0
			}
		}
	}
}

// RunConcurrent executes every tenant's arbitrated program simultaneously
// on one shared engine worker pool and measures what each tenant received
// under real contention. The pool's capacity is the global core budget;
// each tenant is guaranteed its arbitrated core share, and its program,
// sized for the whole pool, borrows beyond it when another tenant idles
// (with strict guarantee priority when it resumes). dec is the decision to
// validate; nil re-arbitrates the current tenant set first. The run holds
// the arbiter's lock, so admissions serialize behind it.
//
// Failure isolation: a tenant whose drain errors, whose program panics, or
// that the watchdog declares stalled is reported with that status in the
// returned report — the run itself still succeeds, the failed tenant's pool
// share is reclaimed and re-water-filled across the survivors, and every
// reclaim is audited in RunReport.Reclaims.
func (a *Arbiter) RunConcurrent(dec *Decision, opts RunOptions) (*RunReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.tenants) == 0 {
		return nil, fmt.Errorf("host: no tenants admitted")
	}
	if dec == nil {
		var err error
		dec, err = a.arbitrateLocked()
		if err != nil {
			return nil, err
		}
	}
	byName := make(map[string]*tenantState, len(a.tenants))
	for _, t := range a.tenants {
		byName[t.Name] = t
	}

	// Instantiate every tenant's program against the shared pool before
	// launching anything, so a bad share fails the run instead of racing it.
	pool := engine.NewSharedPool(a.budget.Cores)
	runners := make([]*runner, 0, len(dec.Shares))
	closeAll := func() {
		for _, r := range runners {
			r.pipeline.Close()
		}
	}
	for _, share := range dec.Shares {
		t, ok := byName[share.Tenant]
		if !ok {
			closeAll()
			return nil, fmt.Errorf("host: decision names unknown tenant %q", share.Tenant)
		}
		if err := pool.Admit(share.Tenant, share.Budget.Cores); err != nil {
			closeAll()
			return nil, err
		}
		r := &runner{share: share}
		eopts := engine.Options{
			FS:         t.Source,
			UDFs:       t.UDFs,
			WorkScale:  t.WorkScale,
			Spin:       opts.Spin || t.Spin,
			Seed:       t.Seed,
			Pool:       pool,
			PoolTenant: share.Tenant,
			Retry:      opts.Retry,
		}
		if opts.Traced {
			col, err := trace.NewCollector(share.Program, trace.Machine{
				Name: "host-concurrent", Cores: share.Budget.Cores, MemoryBytes: share.Budget.MemoryBytes,
			})
			if err != nil {
				closeAll()
				return nil, err
			}
			col.SetTenant(share.Tenant)
			t.Source.AddObserver(col)
			defer t.Source.RemoveObserver(col)
			r.col = col
			eopts.Collector = col
		}
		p, err := engine.New(share.Program, eopts)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("host: instantiate tenant %q: %w", share.Tenant, err)
		}
		r.pipeline = p
		runners = append(runners, r)
	}

	wallStart := time.Now()
	ctl := &runCtl{a: a, pool: pool, byName: byName, start: wallStart, runners: runners}

	watchInterval := opts.WatchdogInterval
	if watchInterval == 0 {
		watchInterval = 500 * time.Millisecond
	}
	stallIntervals := opts.WatchdogStallIntervals
	if stallIntervals <= 0 {
		stallIntervals = 10
	}
	stopWatch := make(chan struct{})
	var watchWg sync.WaitGroup
	if watchInterval > 0 {
		watchWg.Add(1)
		go func() {
			defer watchWg.Done()
			ctl.watch(watchInterval, stallIntervals, stopWatch)
		}()
	}

	var wg sync.WaitGroup
	for _, r := range runners {
		wg.Add(1)
		go func(r *runner) {
			defer wg.Done()
			start := time.Now()
			el, ex, err := r.drain(opts.MaxMinibatches)
			r.seconds = time.Since(start).Seconds()
			r.elements, r.examples = el, ex
			ctl.finish(r, err)
		}(r)
	}
	wg.Wait()
	close(stopWatch)
	watchWg.Wait()
	wall := time.Since(wallStart).Seconds()

	poolStats := make(map[string]engine.PoolStats, len(runners))
	var heldTotal float64
	for _, s := range pool.Stats() {
		poolStats[s.Tenant] = s
		heldTotal += s.HeldSeconds
	}

	rep := &RunReport{Budget: dec.Budget, WallSeconds: wall, Reclaims: ctl.reclaims}
	if opts.Traced {
		rep.Snapshots = make(map[string]*trace.Snapshot, len(runners))
	}
	for _, r := range runners {
		es := r.pipeline.ErrorStats()
		status := r.status
		if status == "" {
			status = StatusOK
		}
		if status == StatusOK && es.Retries > 0 {
			status = StatusDegraded
		}
		ms := MeasuredShare{
			Tenant:                     r.share.Tenant,
			ShareCores:                 r.share.Budget.Cores,
			Status:                     status,
			Failure:                    r.failure,
			PredictedMinibatchesPerSec: r.share.PredictedMinibatchesPerSec,
			Minibatches:                r.elements,
			Examples:                   r.examples,
			Seconds:                    r.seconds,
			Retries:                    es.Retries,
			Errors:                     es.Errors,
			GaveUp:                     es.GaveUp,
		}
		if r.seconds > 0 {
			ms.MeasuredMinibatchesPerSec = float64(r.elements) / r.seconds
			ms.MeasuredExamplesPerSec = float64(r.examples) / r.seconds
		}
		if ps, ok := poolStats[r.share.Tenant]; ok {
			ms.HeldCoreSeconds = ps.HeldSeconds
			ms.SequentialHeldCoreSeconds = ps.HeldSecondsSequential
			if heldTotal > 0 {
				ms.HeldShareFraction = ps.HeldSeconds / heldTotal
			}
			ms.PeakWorkers = ps.PeakWorkers
			ms.Borrows = ps.Borrows
		}
		rep.Tenants = append(rep.Tenants, ms)
		rep.MeasuredAggregateMinibatchesPerSec += ms.MeasuredMinibatchesPerSec
		rep.PredictedAggregateMinibatchesPerSec += ms.PredictedMinibatchesPerSec
		if status == StatusOK || status == StatusDegraded {
			rep.SurvivorAggregateMinibatchesPerSec += ms.MeasuredMinibatchesPerSec
		}
		if opts.Traced && r.col != nil {
			totalFiles := 0
			if srcs, err := r.share.Program.Sources(); err == nil {
				for _, sn := range srcs {
					if cat, err := data.CatalogByName(sn.Catalog); err == nil {
						totalFiles += cat.NumFiles
					}
				}
			}
			rep.Snapshots[r.share.Tenant] = r.col.Snapshot(
				time.Duration(r.seconds*float64(time.Second)), totalFiles)
		}
	}
	return rep, nil
}
