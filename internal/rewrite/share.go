package rewrite

import (
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
)

// SolveShare is the one planning step of both plumber.Plan and the
// multi-tenant arbiter: solve the one-shot joint allocation for an analyzed
// pipeline under its budget (a tenant's, its share of a global one), and
// materialize it as one validated rewritten program in the same step. The
// returned trail audits every knob change under the canonical rewrite
// names; the solved plan rides along so the caller can read the predicted
// rate without re-deriving it.
func SolveShare(a *ops.Analysis, share plan.Budget) (*pipeline.Graph, Trail, *plan.Plan, error) {
	p, err := plan.Solve(a, share)
	if err != nil {
		return nil, nil, nil, err
	}
	g, trail, err := ApplyPlan(a.Snapshot.Graph, p)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, trail, p, nil
}
