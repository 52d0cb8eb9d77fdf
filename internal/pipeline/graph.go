// Package pipeline defines the serializable program representation of an
// input pipeline: a tree of Dataset nodes from one or more storage sources
// up to the root that feeds the model (§2.1). Most pipelines are a single
// linear chain; combining operators (Zip, Concat) merge multiple branches,
// each headed by its own source. The representation plays the role of
// tf.data's serialized GraphDef: Plumber's tracer dumps it next to the
// runtime counters, the analyzer joins the two, and the rewriter (package
// internal/rewrite, driven by the top-level plumber façade) performs graph
// surgery on it before re-instantiating the pipeline.
//
// Graph surgery goes through the transactional mutation primitives —
// InsertAbove, Remove, WithParallelism, WithOuterParallelism — each of
// which returns a validated clone and leaves the receiver untouched, so
// analyses and snapshots keyed on node names never observe a half-edited
// program.
package pipeline

import (
	"encoding/json"
	"fmt"
)

// Kind enumerates Dataset operator types.
type Kind string

// Operator kinds. Interleave is the data source, reading TFRecord shards
// (at parallelism p, p shards at once); the rest transform the element
// stream.
const (
	KindInterleave Kind = "interleave" // shard reader -> records, parallelizable
	KindMap        Kind = "map"        // UDF application, parallelizable
	KindFilter     Kind = "filter"     // UDF predicate, parallelizable
	KindShuffle    Kind = "shuffle"    // buffered random sampling, sequential
	KindRepeat     Kind = "repeat"     // restart the stream Count times (-1 = forever)
	KindBatch      Kind = "batch"      // group BatchSize examples into one element
	KindPrefetch   Kind = "prefetch"   // decouple producer/consumer with a buffer
	KindCache      Kind = "cache"      // materialize child output in memory
	KindTake       Kind = "take"       // truncate stream to Count elements
	KindZip        Kind = "zip"        // pair one element from each input per output
	KindConcat     Kind = "concat"     // drain each input in order
)

// Node is one Dataset in the pipeline program.
type Node struct {
	// Name uniquely identifies the node; rewrites key on it (§B "Graph
	// Rewrites": the Dataset name joins the in-memory representation with
	// the Graph).
	Name string `json:"name"`
	// Kind is the operator type.
	Kind Kind `json:"kind"`
	// Input names the child node this node pulls from; empty for sources.
	Input string `json:"input,omitempty"`
	// Inputs names the child nodes of a combining operator (Zip, Concat),
	// which pulls from two or more branches. Exactly one of Input / Inputs
	// is set; every other kind uses the single Input.
	Inputs []string `json:"inputs,omitempty"`
	// UDF names the registered user-defined function (Map and Filter).
	UDF string `json:"udf,omitempty"`
	// Parallelism is the degree of intra-operator parallelism. Zero means
	// the operator default (1). For sources it is read parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// BufferSize is the buffer capacity for Prefetch and Shuffle.
	BufferSize int `json:"buffer_size,omitempty"`
	// BatchSize is the group size for Batch.
	BatchSize int `json:"batch_size,omitempty"`
	// Count parameterizes Repeat (-1 = infinite) and Take.
	Count int64 `json:"count,omitempty"`
	// Catalog names the dataset read by a source node.
	Catalog string `json:"catalog,omitempty"`
}

// EffectiveParallelism returns the node's parallelism, defaulting to 1.
func (n Node) EffectiveParallelism() int {
	if n.Parallelism < 1 {
		return 1
	}
	return n.Parallelism
}

// Parallelizable reports whether Plumber may raise the node's parallelism
// knob: a source or a UDF stage (Map, Filter). Sequential Datasets are
// constrained to at most one core in the LP; combining operators (Zip,
// Concat) are always sequential — their output order is the contract.
func (n Node) Parallelizable() bool {
	switch n.Kind {
	case KindMap, KindFilter, KindInterleave:
		return true
	default:
		return false
	}
}

// IsCombiner reports whether the node merges multiple input branches.
func (n Node) IsCombiner() bool {
	return n.Kind == KindZip || n.Kind == KindConcat
}

// InputNames returns the node's input edges in pull order: Inputs for a
// combining operator, the single Input otherwise, nil for sources.
func (n Node) InputNames() []string {
	if len(n.Inputs) > 0 {
		return n.Inputs
	}
	if n.Input != "" {
		return []string{n.Input}
	}
	return nil
}

// IsSource reports whether the node reads from storage.
func (n Node) IsSource() bool {
	return n.Kind == KindInterleave
}

// Graph is a complete pipeline program: an in-tree of nodes rooted at
// Output, the Dataset instantiated by the training loop. Without combining
// operators the tree degenerates to the usual linear chain.
type Graph struct {
	// Nodes holds the program's Datasets in any order; Validate enforces
	// that they form a single in-tree.
	Nodes []Node `json:"nodes"`
	// Output names the root node.
	Output string `json:"output"`
	// OuterParallelism replicates the whole pipeline this many times and
	// interleaves the replicas' outputs — the "outer parallelism" remedy
	// the paper applies to the NLP pipelines (§5.1). Zero means 1.
	OuterParallelism int `json:"outer_parallelism,omitempty"`
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{Output: g.Output, OuterParallelism: g.OuterParallelism}
	out.Nodes = append([]Node(nil), g.Nodes...)
	for i := range out.Nodes {
		if out.Nodes[i].Inputs != nil {
			out.Nodes[i].Inputs = append([]string(nil), out.Nodes[i].Inputs...)
		}
	}
	return out
}

// Node returns the named node, or an error.
func (g *Graph) Node(name string) (Node, error) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("pipeline: no node %q", name)
}

// NodeIndex returns the index of the named node in Nodes, or -1.
func (g *Graph) NodeIndex(name string) int {
	for i, n := range g.Nodes {
		if n.Name == name {
			return i
		}
	}
	return -1
}

// InsertAbove returns a validated clone with n inserted directly above the
// named node: n consumes name, and whatever consumed name now consumes n.
// Inserting above the output makes n the new output. The receiver is never
// modified; on any error (missing anchor, duplicate or empty name for n,
// or a clone that fails Validate) the original graph remains usable as-is.
func (g *Graph) InsertAbove(name string, n Node) (*Graph, error) {
	if n.Name == "" {
		return nil, fmt.Errorf("pipeline: InsertAbove: inserted node needs a name")
	}
	if g.NodeIndex(n.Name) >= 0 {
		return nil, fmt.Errorf("pipeline: InsertAbove: node %q already exists", n.Name)
	}
	if g.NodeIndex(name) < 0 {
		return nil, fmt.Errorf("pipeline: InsertAbove: no node %q", name)
	}
	if n.IsSource() {
		return nil, fmt.Errorf("pipeline: InsertAbove: cannot insert source node %q mid-chain", n.Name)
	}
	out := g.Clone()
	n.Input = name
	for i := range out.Nodes {
		if out.Nodes[i].Input == name {
			out.Nodes[i].Input = n.Name
		}
		for j, in := range out.Nodes[i].Inputs {
			if in == name {
				out.Nodes[i].Inputs[j] = n.Name
			}
		}
	}
	out.Nodes = append(out.Nodes, n)
	if out.Output == name {
		out.Output = n.Name
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: InsertAbove %q: %w", n.Name, err)
	}
	return out, nil
}

// Remove returns a validated clone with the named node spliced out: its
// consumer (or the graph output) now pulls from its input. Removing the
// source fails validation, as does removing the only node. Combining
// operators (Zip, Concat) cannot be removed — splicing would leave their
// branches with no consumer. The receiver is never modified.
func (g *Graph) Remove(name string) (*Graph, error) {
	i := g.NodeIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("pipeline: Remove: no node %q", name)
	}
	if g.Nodes[i].IsCombiner() {
		return nil, fmt.Errorf("pipeline: Remove: cannot remove %s node %q; its input branches would be left dangling", g.Nodes[i].Kind, name)
	}
	out := g.Clone()
	removed := out.Nodes[i]
	out.Nodes = append(out.Nodes[:i], out.Nodes[i+1:]...)
	for j := range out.Nodes {
		if out.Nodes[j].Input == name {
			out.Nodes[j].Input = removed.Input
		}
		for k, in := range out.Nodes[j].Inputs {
			if in == name {
				out.Nodes[j].Inputs[k] = removed.Input
			}
		}
	}
	if out.Output == name {
		if removed.Input == "" {
			return nil, fmt.Errorf("pipeline: Remove: cannot remove %q, the only node", name)
		}
		out.Output = removed.Input
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: Remove %q: %w", name, err)
	}
	return out, nil
}

// WithParallelism returns a validated clone with the named node's
// parallelism knob set to p. Raising parallelism on a sequential node fails
// validation. The receiver is never modified.
func (g *Graph) WithParallelism(name string, p int) (*Graph, error) {
	i := g.NodeIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("pipeline: WithParallelism: no node %q", name)
	}
	out := g.Clone()
	out.Nodes[i].Parallelism = p
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: WithParallelism %q: %w", name, err)
	}
	return out, nil
}

// WithOuterParallelism returns a validated clone replicating the whole
// pipeline k times (0 and 1 both mean a single instance). The receiver is
// never modified.
func (g *Graph) WithOuterParallelism(k int) (*Graph, error) {
	out := g.Clone()
	out.OuterParallelism = k
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: WithOuterParallelism %d: %w", k, err)
	}
	return out, nil
}

// byNameAndConsumers indexes the nodes and counts each node's consumers
// (edges referencing it via Input or Inputs), checking name sanity.
func (g *Graph) byNameAndConsumers() (map[string]Node, map[string]int, error) {
	byName := make(map[string]Node, len(g.Nodes))
	consumers := make(map[string]int)
	for _, n := range g.Nodes {
		if n.Name == "" {
			return nil, nil, fmt.Errorf("pipeline: node with empty name")
		}
		if _, dup := byName[n.Name]; dup {
			return nil, nil, fmt.Errorf("pipeline: duplicate node name %q", n.Name)
		}
		byName[n.Name] = n
		for _, in := range n.InputNames() {
			consumers[in]++
		}
	}
	return byName, consumers, nil
}

// Chain returns the nodes ordered from source to root. It fails if the
// graph is not a single linear chain ending at Output — in particular any
// combining operator (Zip, Concat) makes the graph non-linear. Callers
// that handle DAG-shaped graphs use Topo instead.
func (g *Graph) Chain() ([]Node, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("pipeline: empty graph")
	}
	byName, consumers, err := g.byNameAndConsumers()
	if err != nil {
		return nil, err
	}
	root, ok := byName[g.Output]
	if !ok {
		return nil, fmt.Errorf("pipeline: output node %q not found", g.Output)
	}
	if consumers[root.Name] != 0 {
		return nil, fmt.Errorf("pipeline: output node %q has a consumer", root.Name)
	}
	// Walk root -> source, then reverse.
	reversed := make([]Node, 0, len(g.Nodes))
	cur := root
	for {
		if len(cur.Inputs) > 0 {
			return nil, fmt.Errorf("pipeline: node %q (kind %s) has %d inputs; graph is not a linear chain", cur.Name, cur.Kind, len(cur.Inputs))
		}
		reversed = append(reversed, cur)
		if len(reversed) > len(g.Nodes) {
			return nil, fmt.Errorf("pipeline: cycle detected at %q", cur.Name)
		}
		if cur.Input == "" {
			break
		}
		next, ok := byName[cur.Input]
		if !ok {
			return nil, fmt.Errorf("pipeline: node %q references missing input %q", cur.Name, cur.Input)
		}
		cur = next
	}
	if len(reversed) != len(g.Nodes) {
		return nil, fmt.Errorf("pipeline: %d of %d nodes unreachable from output", len(g.Nodes)-len(reversed), len(g.Nodes))
	}
	chain := make([]Node, len(reversed))
	for i, n := range reversed {
		chain[len(reversed)-1-i] = n
	}
	return chain, nil
}

// Topo returns the nodes in a deterministic topological order: a depth-first
// post-order from Output that visits a node's inputs in pull order, so every
// node appears after all of its inputs and the root is last. For a linear
// chain the result equals Chain(). It fails on cycles, missing inputs,
// unreachable nodes, nodes with more than one consumer, or a consumed
// Output — the graph must be an in-tree rooted at Output.
func (g *Graph) Topo() ([]Node, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("pipeline: empty graph")
	}
	byName, consumers, err := g.byNameAndConsumers()
	if err != nil {
		return nil, err
	}
	if _, ok := byName[g.Output]; !ok {
		return nil, fmt.Errorf("pipeline: output node %q not found", g.Output)
	}
	if consumers[g.Output] != 0 {
		return nil, fmt.Errorf("pipeline: output node %q has a consumer", g.Output)
	}
	for name, c := range consumers {
		if c > 1 {
			return nil, fmt.Errorf("pipeline: node %q has %d consumers; each node feeds exactly one", name, c)
		}
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(g.Nodes))
	order := make([]Node, 0, len(g.Nodes))
	var visit func(name string) error
	visit = func(name string) error {
		n, ok := byName[name]
		if !ok {
			return fmt.Errorf("pipeline: missing input %q", name)
		}
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("pipeline: cycle detected at %q", name)
		}
		state[name] = visiting
		for _, in := range n.InputNames() {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[name] = done
		order = append(order, n)
		return nil
	}
	if err := visit(g.Output); err != nil {
		return nil, err
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("pipeline: %d of %d nodes unreachable from output", len(g.Nodes)-len(order), len(g.Nodes))
	}
	return order, nil
}

// Below returns the nodes strictly below the named node — the sub-graph
// feeding it — in the same deterministic topological order as Topo. For a
// linear chain this is the chain prefix ending just under name.
func (g *Graph) Below(name string) ([]Node, error) {
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	idx := make(map[string]Node, len(order))
	for _, n := range order {
		idx[n.Name] = n
	}
	anchor, ok := idx[name]
	if !ok {
		return nil, fmt.Errorf("pipeline: no node %q", name)
	}
	below := make(map[string]bool)
	var mark func(n Node)
	mark = func(n Node) {
		for _, in := range n.InputNames() {
			if !below[in] {
				below[in] = true
				mark(idx[in])
			}
		}
	}
	mark(anchor)
	out := make([]Node, 0, len(below))
	for _, n := range order {
		if below[n.Name] {
			out = append(out, n)
		}
	}
	return out, nil
}

// Sources returns every source node in topological order.
func (g *Graph) Sources() ([]Node, error) {
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	var out []Node
	for _, n := range order {
		if n.IsSource() {
			out = append(out, n)
		}
	}
	return out, nil
}

// Validate checks structural invariants: an in-tree of nodes rooted at
// Output (a linear chain unless combining operators are present), a source
// at the head of every branch, and per-kind parameter sanity.
func (g *Graph) Validate() error {
	if g.OuterParallelism < 0 {
		return fmt.Errorf("pipeline: negative outer parallelism %d", g.OuterParallelism)
	}
	order, err := g.Topo()
	if err != nil {
		return err
	}
	for _, n := range order {
		if n.IsCombiner() {
			if len(n.Inputs) < 2 {
				return fmt.Errorf("pipeline: %s node %q needs at least two inputs, got %d", n.Kind, n.Name, len(n.Inputs))
			}
			if n.Input != "" {
				return fmt.Errorf("pipeline: %s node %q must use inputs, not input", n.Kind, n.Name)
			}
		} else if len(n.Inputs) > 0 {
			return fmt.Errorf("pipeline: %s node %q cannot have multiple inputs", n.Kind, n.Name)
		}
		if n.IsSource() != (len(n.InputNames()) == 0) {
			if n.IsSource() {
				return fmt.Errorf("pipeline: source node %q must head its branch", n.Name)
			}
			return fmt.Errorf("pipeline: branch head %q (kind %s) is not a source", n.Name, n.Kind)
		}
		switch n.Kind {
		case KindInterleave:
			if n.Catalog == "" {
				return fmt.Errorf("pipeline: source %q missing catalog", n.Name)
			}
		case KindMap, KindFilter:
			if n.UDF == "" {
				return fmt.Errorf("pipeline: %s node %q missing UDF", n.Kind, n.Name)
			}
		case KindBatch:
			if n.BatchSize < 1 {
				return fmt.Errorf("pipeline: batch node %q needs batch_size >= 1", n.Name)
			}
		case KindShuffle, KindPrefetch:
			if n.BufferSize < 1 {
				return fmt.Errorf("pipeline: %s node %q needs buffer_size >= 1", n.Kind, n.Name)
			}
		case KindRepeat:
			if n.Count == 0 {
				return fmt.Errorf("pipeline: repeat node %q needs count != 0", n.Name)
			}
		case KindTake:
			if n.Count < 1 {
				return fmt.Errorf("pipeline: take node %q needs count >= 1", n.Name)
			}
		case KindCache, KindZip, KindConcat:
			// no parameters
		default:
			return fmt.Errorf("pipeline: node %q has unknown kind %q", n.Name, n.Kind)
		}
		if n.Parallelism < 0 {
			return fmt.Errorf("pipeline: node %q has negative parallelism", n.Name)
		}
		if n.Parallelism > 1 && !n.Parallelizable() {
			return fmt.Errorf("pipeline: sequential node %q (kind %s) cannot have parallelism %d", n.Name, n.Kind, n.Parallelism)
		}
	}
	return nil
}

// Marshal serializes the graph as JSON (the "serialized pipeline program"
// Plumber dumps next to its counters).
func (g *Graph) Marshal() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// Unmarshal parses a serialized graph and validates it.
func Unmarshal(b []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("pipeline: unmarshal: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}
