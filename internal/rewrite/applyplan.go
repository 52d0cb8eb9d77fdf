package rewrite

import (
	"fmt"

	"plumber/internal/pipeline"
	"plumber/internal/plan"
)

// ApplyPlan materializes a solved plan into one validated rewritten clone
// of g, recording every knob change in the returned audit Trail under the
// canonical rewrite names. All surgery goes through the pipeline package's
// transactional primitives, so the result either passes Validate or
// ApplyPlan errors with the input graph intact. A plan that changes nothing
// yields an unmodified clone and an empty trail.
func ApplyPlan(g *pipeline.Graph, p *plan.Plan) (*pipeline.Graph, Trail, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("rewrite: ApplyPlan: nil plan")
	}
	order, err := g.Topo()
	if err != nil {
		return nil, nil, err
	}
	cur := g
	var trail Trail

	// Parallelism knobs, in sources -> root topological order for a
	// deterministic trail on linear and DAG-shaped graphs alike.
	for _, n := range order {
		want, ok := p.Parallelism[n.Name]
		if !ok || want < 1 || want == n.EffectiveParallelism() {
			continue
		}
		if !n.Parallelizable() {
			return nil, nil, fmt.Errorf("rewrite: ApplyPlan: plan sets parallelism %d on sequential node %q", want, n.Name)
		}
		next, err := cur.WithParallelism(n.Name, want)
		if err != nil {
			return nil, nil, err
		}
		cur = next
		trail = append(trail, Step{
			Rewrite: NameRaiseParallelism,
			Node:    n.Name,
			Detail:  fmt.Sprintf("plan: parallelism %d -> %d", n.EffectiveParallelism(), want),
		})
	}

	// Cache before prefetch, so a planned root prefetch ends up above the
	// cache.
	if p.CacheAbove != "" {
		for _, n := range cur.Nodes {
			if n.Kind == pipeline.KindCache {
				return nil, nil, fmt.Errorf("rewrite: ApplyPlan: plan adds a cache but %q already has one", n.Name)
			}
		}
		name := uniqueName(cur, "plumber_cache")
		next, err := cur.InsertAbove(p.CacheAbove, pipeline.Node{Name: name, Kind: pipeline.KindCache})
		if err != nil {
			return nil, nil, err
		}
		cur = next
		trail = append(trail, Step{
			Rewrite: NameInsertCache,
			Node:    name,
			Detail:  fmt.Sprintf("plan: cache inserted above %q (%.0f bytes/replica projected)", p.CacheAbove, p.CacheBytes),
		})
	}

	if p.PrefetchBuffer > 0 {
		root, err := cur.Node(cur.Output)
		if err != nil {
			return nil, nil, err
		}
		if root.Kind != pipeline.KindPrefetch {
			name := uniqueName(cur, "plumber_prefetch")
			next, err := cur.InsertAbove(cur.Output, pipeline.Node{
				Name: name, Kind: pipeline.KindPrefetch, BufferSize: p.PrefetchBuffer,
			})
			if err != nil {
				return nil, nil, err
			}
			cur = next
			trail = append(trail, Step{
				Rewrite: NameInsertPrefetch,
				Node:    name,
				Detail:  fmt.Sprintf("plan: prefetch(%d) inserted above %q", p.PrefetchBuffer, root.Name),
			})
		}
	}

	if outer := p.OuterParallelism; outer > 1 && outer != cur.OuterParallelism {
		prev := cur.OuterParallelism
		if prev < 1 {
			prev = 1
		}
		next, err := cur.WithOuterParallelism(outer)
		if err != nil {
			return nil, nil, err
		}
		cur = next
		trail = append(trail, Step{
			Rewrite: NameOuterParallelism,
			Detail:  fmt.Sprintf("plan: outer parallelism %d -> %d", prev, outer),
		})
	}

	if cur == g {
		cur = g.Clone() // the contract is a clone even for a no-op plan
	}
	return cur, trail, nil
}
