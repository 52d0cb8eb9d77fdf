// Package rewrite implements Plumber's remedies as composable graph
// rewrites (§5.1, Appendix B "Graph Rewrites"): given an operational
// analysis of a traced pipeline and a resource budget, each Rewrite decides
// whether it applies and, if so, produces a validated rewritten program plus
// an audit Step describing what changed and why. The top-level plumber
// façade chains them in a trace → analyze → rewrite → re-instantiate loop
// until capacity converges or the budget binds.
//
// All rewrites go through the pipeline package's transactional mutation
// primitives, so the analyzed graph is never observed half-edited: a rewrite
// either returns a fresh valid clone or reports itself inapplicable.
package rewrite

import (
	"fmt"
	"math"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
)

// Budget is the resource envelope the tuner allocates against — the
// paper's nc cores, memory for caches, and disk bandwidth. It aliases
// plan.Budget (the planner is the leaf of the dependency chain), so the
// greedy rewrites and the one-shot planner share one envelope type.
type Budget = plan.Budget

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

// Rewrite is one composable remedy. Apply inspects the analysis (whose
// Snapshot carries the traced program) and the budget; when applicable it
// returns a validated rewritten clone of the program and an audit step,
// leaving the analyzed graph untouched. applied=false means the remedy has
// nothing (more) to do under this analysis and budget.
type Rewrite interface {
	Name() string
	Apply(a *ops.Analysis, b Budget) (g *pipeline.Graph, step Step, applied bool, err error)
}

// Canonical rewrite names, useful for audit-trail assertions.
const (
	NameRaiseParallelism = "raise-parallelism"
	NameInsertPrefetch   = "insert-prefetch"
	NameInsertCache      = "insert-cache"
	NameOuterParallelism = "outer-parallelism"
)

// DefaultRewrites returns the paper's remedy sequence in precedence order:
// raise the parallelizable bottleneck while cores remain, then decouple the
// consumer with a root prefetch, then materialize the best cacheable node
// within the memory budget, then replicate the whole pipeline when a
// sequential Dataset is the residual bottleneck.
func DefaultRewrites(b Budget) []Rewrite {
	maxPer := b.Cores
	if maxPer <= 0 {
		maxPer = 64 // safety cap when the core budget is unbounded
	}
	return []Rewrite{
		RaiseParallelism{MaxPerNode: maxPer},
		InsertPrefetch{},
		InsertCacheAtBestNode{},
		OuterParallelism{},
	}
}

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

// resourceCeiling is the budget-imposed throughput ceiling: the minimum of
// the disk-bandwidth and aggregate-CPU bounds. Unlike CapacityCeiling it
// ignores sequential Datasets, which outer parallelism can bypass.
func resourceCeiling(a *ops.Analysis, b Budget) float64 {
	c := math.Inf(1)
	if b.DiskBandwidth > 0 {
		c = math.Min(c, a.DiskBoundMinibatchesPerSec(b.DiskBandwidth))
	}
	if b.Cores > 0 {
		c = math.Min(c, a.CPUBoundMinibatchesPerSec(b.Cores))
	}
	return c
}

// CapacityCeiling is the best end-to-end throughput (minibatches/second)
// this pipeline shape can reach under the budget: the minimum of the disk
// ceiling, the aggregate CPU work-conservation ceiling, and every
// non-parallelizable Dataset's current capacity (a sequential node cannot
// be raised past its single-core rate, only bypassed by outer parallelism).
func CapacityCeiling(a *ops.Analysis, b Budget) float64 {
	c := resourceCeiling(a, b)
	for _, n := range a.Nodes {
		if !n.Parallelizable && !math.IsInf(n.ScaledCapacity, 1) {
			c = math.Min(c, n.ScaledCapacity)
		}
	}
	return c
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

// RaiseParallelism steps the parallelism knob of the lowest-capacity
// parallelizable Dataset — the sequential tuner's move (§5.1). It stops
// when no parallelizable Dataset exists or when the target's capacity
// already meets the pipeline's ceiling (raising it further cannot improve
// end-to-end throughput). The core budget binds through that ceiling — its
// work-conservation bound — so a knob ends at the ceiling of its stage's
// CPU claim, where plan.Solve puts it in one shot.
type RaiseParallelism struct {
	// MaxPerNode caps any single Dataset's knob; 0 means uncapped.
	MaxPerNode int
}

// Name implements Rewrite.
func (RaiseParallelism) Name() string { return NameRaiseParallelism }

// Apply implements Rewrite.
func (r RaiseParallelism) Apply(a *ops.Analysis, b Budget) (*pipeline.Graph, Step, bool, error) {
	g := a.Snapshot.Graph
	target, ok := a.NextParallelizableBottleneck()
	if !ok {
		return nil, Step{}, false, nil
	}
	if target.ScaledCapacity >= CapacityCeiling(a, b) {
		return nil, Step{}, false, nil
	}
	node, err := g.Node(target.Name)
	if err != nil {
		return nil, Step{}, false, err
	}
	p := node.EffectiveParallelism() + 1
	if r.MaxPerNode > 0 && p > r.MaxPerNode {
		return nil, Step{}, false, nil
	}
	out, err := g.WithParallelism(target.Name, p)
	if err != nil {
		return nil, Step{}, false, err
	}
	step := Step{
		Rewrite: r.Name(),
		Node:    target.Name,
		Detail: fmt.Sprintf("parallelism %d -> %d (capacity %.1f minibatches/s, lowest among parallelizable Datasets)",
			node.EffectiveParallelism(), p, target.ScaledCapacity),
	}
	return out, step, true, nil
}

// InsertPrefetch decouples the training loop from the pipeline with a
// buffer at the root — the software-pipelining remedy. Applies once, when
// the program's output is not already a Prefetch.
type InsertPrefetch struct {
	// Buffer is the prefetch depth in root elements (default 8).
	Buffer int
}

// Name implements Rewrite.
func (InsertPrefetch) Name() string { return NameInsertPrefetch }

// Apply implements Rewrite.
func (r InsertPrefetch) Apply(a *ops.Analysis, b Budget) (*pipeline.Graph, Step, bool, error) {
	g := a.Snapshot.Graph
	root, err := g.Node(g.Output)
	if err != nil {
		return nil, Step{}, false, err
	}
	if root.Kind == pipeline.KindPrefetch {
		return nil, Step{}, false, nil
	}
	buf := r.Buffer
	if buf <= 0 {
		buf = 8
	}
	name := uniqueName(g, "plumber_prefetch")
	out, err := g.InsertAbove(g.Output, pipeline.Node{Name: name, Kind: pipeline.KindPrefetch, BufferSize: buf})
	if err != nil {
		return nil, Step{}, false, err
	}
	step := Step{
		Rewrite: r.Name(),
		Node:    name,
		Detail:  fmt.Sprintf("prefetch(%d) inserted above %q to overlap input processing with consumption", buf, root.Name),
	}
	return out, step, true, nil
}

// InsertCacheAtBestNode materializes the output of the cacheable Dataset
// closest to the root whose projected size (ops.MaterializedBytes = n_i×b_i)
// fits the memory budget — caching as far downstream as legality and memory
// allow skips the most recomputation on subsequent epochs (§B.1). Applies
// once: chains already containing a Cache are left alone.
type InsertCacheAtBestNode struct{}

// Name implements Rewrite.
func (InsertCacheAtBestNode) Name() string { return NameInsertCache }

// Apply implements Rewrite.
func (r InsertCacheAtBestNode) Apply(a *ops.Analysis, b Budget) (*pipeline.Graph, Step, bool, error) {
	if b.MemoryBytes <= 0 {
		return nil, Step{}, false, nil
	}
	g := a.Snapshot.Graph
	for _, n := range g.Nodes {
		if n.Kind == pipeline.KindCache {
			return nil, Step{}, false, nil
		}
	}
	// Analysis nodes are ordered source -> root; scan root -> source for the
	// last legal materialization point that fits.
	for i := len(a.Nodes) - 1; i >= 0; i-- {
		n := a.Nodes[i]
		if !n.Cacheable {
			continue
		}
		if n.MaterializedBytes <= 0 || math.IsInf(n.MaterializedBytes, 1) || n.MaterializedBytes > float64(b.MemoryBytes) {
			continue
		}
		name := uniqueName(g, "plumber_cache")
		out, err := g.InsertAbove(n.Name, pipeline.Node{Name: name, Kind: pipeline.KindCache})
		if err != nil {
			return nil, Step{}, false, err
		}
		step := Step{
			Rewrite: r.Name(),
			Node:    name,
			Detail: fmt.Sprintf("cache inserted above %q: %.0f bytes materialized within the %d-byte budget",
				n.Name, n.MaterializedBytes, b.MemoryBytes),
		}
		return out, step, true, nil
	}
	return nil, Step{}, false, nil
}

// OuterParallelism replicates the whole pipeline and interleaves replica
// outputs — the remedy the paper applies when a fundamentally sequential
// Dataset (a non-parallelizable bottleneck) caps throughput (§5.1's NLP
// pipelines). It raises the replica count while the sequential bottleneck
// still limits the pipeline and the core budget covers another replica.
type OuterParallelism struct {
	// Max caps the replica count; 0 defaults to the core budget.
	Max int
}

// Name implements Rewrite.
func (OuterParallelism) Name() string { return NameOuterParallelism }

// Apply implements Rewrite.
func (r OuterParallelism) Apply(a *ops.Analysis, b Budget) (*pipeline.Graph, Step, bool, error) {
	g := a.Snapshot.Graph
	bn := a.Bottleneck()
	if bn.Parallelizable || math.IsInf(bn.ScaledCapacity, 1) {
		return nil, Step{}, false, nil
	}
	outer := g.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	maxOuter := r.Max
	if maxOuter <= 0 {
		maxOuter = b.Cores
	}
	if maxOuter <= 0 {
		maxOuter = 16 // safety cap when the core budget is unbounded
	}
	if outer+1 > maxOuter {
		return nil, Step{}, false, nil
	}
	// Replication bypasses the sequential node; stop once the replicated
	// sequential capacity meets the resource ceiling.
	if bn.ScaledCapacity*float64(outer) >= resourceCeiling(a, b) {
		return nil, Step{}, false, nil
	}
	if b.Cores > 0 {
		perReplica := ParallelCoresInUse(g) / outer
		if perReplica*(outer+1) > b.Cores {
			return nil, Step{}, false, nil
		}
	}
	// Every replica materializes its own copy of any cache in the chain
	// (replica fills must not interleave); only replicate while the
	// multiplied materialization still fits the memory budget. A trace
	// served from a warm cache observes no reads below it and reports
	// MaterializedBytes 0 — an unmeasurable size, so don't replicate it.
	for _, n := range g.Nodes {
		if n.Kind != pipeline.KindCache {
			continue
		}
		below, err := a.Node(n.Input)
		if err != nil {
			return nil, Step{}, false, err
		}
		if !(below.MaterializedBytes > 0) || math.IsInf(below.MaterializedBytes, 1) ||
			below.MaterializedBytes*float64(outer+1) > float64(b.MemoryBytes) {
			return nil, Step{}, false, nil
		}
	}
	out, err := g.WithOuterParallelism(outer + 1)
	if err != nil {
		return nil, Step{}, false, err
	}
	step := Step{
		Rewrite: r.Name(),
		Node:    bn.Name,
		Detail: fmt.Sprintf("outer parallelism %d -> %d: sequential %s %q (capacity %.1f minibatches/s) caps the pipeline",
			outer, outer+1, bn.Kind, bn.Name, bn.ScaledCapacity),
	}
	return out, step, true, nil
}
