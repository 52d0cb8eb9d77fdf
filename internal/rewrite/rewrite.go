// Package rewrite implements Plumber's remedies as graph rewrites (§5.1,
// Appendix B "Graph Rewrites"): ApplyPlan materializes a solved plan.Plan —
// parallelism knobs, a cache, a root prefetch, outer parallelism — as one
// validated rewritten program plus an audit Trail naming every change and
// why. The top-level plumber façade runs it once per Plan, through
// SolveShare: analyze → solve → rewrite.
//
// All rewrites go through the pipeline package's transactional mutation
// primitives, so the analyzed graph is never observed half-edited: ApplyPlan
// either returns a fresh valid clone or errors with the input intact.
package rewrite

import (
	"fmt"
	"math"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
)

// Step is one entry in the audit trail of applied rewrites.
type Step struct {
	// Rewrite names the remedy that fired (e.g. "raise-parallelism").
	Rewrite string `json:"rewrite"`
	// Node is the Dataset the rewrite anchored on, when node-scoped.
	Node string `json:"node,omitempty"`
	// Detail is a human-readable account of the change and its rationale.
	Detail string `json:"detail"`
}

// Trail is the ordered audit trail of every rewrite the tuner applied.
type Trail []Step

// Has reports whether any step was produced by the named rewrite.
func (t Trail) Has(rewrite string) bool {
	for _, s := range t {
		if s.Rewrite == rewrite {
			return true
		}
	}
	return false
}

// Canonical rewrite names, useful for audit-trail assertions.
const (
	NameRaiseParallelism = "raise-parallelism"
	NameInsertPrefetch   = "insert-prefetch"
	NameInsertCache      = "insert-cache"
	NameOuterParallelism = "outer-parallelism"
)

// ParallelCoresInUse counts the workers the program's knobs start: the sum
// of parallelism over parallelizable Datasets, multiplied by outer
// parallelism. A worker is not a core — a stage running at rate X keeps
// X/R_i of one busy — so under a plan sized by CPU demand this total can
// exceed the core budget by the rounding, (stages − 1) per replica.
func ParallelCoresInUse(g *pipeline.Graph) int {
	cores := 0
	for _, n := range g.Nodes {
		if n.Parallelizable() {
			cores += n.EffectiveParallelism()
		}
	}
	outer := g.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	return cores * outer
}

// CapacityCeiling is the best end-to-end throughput (minibatches/second)
// this pipeline shape can reach under the budget: ops.Ceiling's resource
// bound (disk and aggregate CPU) or its slowest non-parallelizable Dataset,
// whichever is lower (a sequential node cannot be raised past its
// single-core rate, only bypassed by outer parallelism).
func CapacityCeiling(a *ops.Analysis, b plan.Budget) float64 {
	c := a.Ceiling(ops.Hypothetical{Cores: b.Cores, DiskBandwidth: b.DiskBandwidth})
	return math.Min(c.Resource, c.Sequential)
}

// uniqueName returns base, or base_2, base_3, ... — the first name not
// already taken by a node in g.
func uniqueName(g *pipeline.Graph, base string) string {
	if g.NodeIndex(base) < 0 {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s_%d", base, i)
		if g.NodeIndex(name) < 0 {
			return name
		}
	}
}
