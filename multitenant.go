package plumber

import "plumber/internal/host"

// Multi-tenant arbitration types, re-exported so callers can stay entirely
// within the façade: a Tenant is one pipeline sharing the global envelope,
// an Arbiter owns the envelope and the tenant set, and a Decision is one
// arbitration outcome (per-tenant budget slices, solved plans, materialized
// programs, and the even-split baseline). RunOptions, MeasuredShare, and
// RunReport belong to Arbiter.RunConcurrent — the concurrent validation run
// that executes every tenant simultaneously on one shared engine worker
// pool and reports measured under-contention rates next to the predictions.
type (
	Tenant        = host.Tenant
	Arbiter       = host.Arbiter
	Decision      = host.Decision
	Share         = host.Share
	RunOptions    = host.RunOptions
	MeasuredShare = host.MeasuredShare
	RunReport     = host.RunReport
)

// NewArbiter returns a multi-tenant arbiter over the global envelope, for
// callers that admit and evict tenants incrementally: Add traces the new
// tenants once each (several at once when admitted together) and
// re-arbitrates, Remove re-arbitrates the remainder, and incumbents are
// never re-traced. A non-positive core budget allocates against this
// machine's core count.
func NewArbiter(budget Budget) *Arbiter {
	return host.NewArbiter(budget)
}

// ArbitrateAll admits every tenant into a fresh arbiter under the global
// budget in one Add, and returns both the arbiter and the arbitration, for
// callers that want to keep going — re-arbitrate on Add/Remove, or validate
// the decision under real contention with Arbiter.RunConcurrent. Each
// tenant is traced exactly once, concurrently with the others on equal
// shares of one worker pool (tenants reading one store are traced one after
// another), and the set is arbitrated once: the cross-tenant core split by
// water-filling on the tenants' predicted rate curves, cache memory by
// marginal cache benefit, disk bandwidth by weighted water-filling capped
// at each tenant's storage ceiling (its own DiskBandwidth limit and its
// connector's bandwidth hint, whichever binds), and every share is
// materialized as a validated per-tenant program (Decision.Shares[i].Program).
func ArbitrateAll(tenants []Tenant, budget Budget) (*Arbiter, *Decision, error) {
	arb := host.NewArbiter(budget)
	dec, err := arb.Add(tenants...)
	if err != nil {
		return nil, nil, err
	}
	return arb, dec, nil
}
