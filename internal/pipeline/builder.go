package pipeline

import "fmt"

// Builder constructs linear pipelines fluently, mirroring the chained style
// of Figure 1 (dataset_from_files().map(parse).shuffle(1024).batch(128)...).
// Node names are auto-generated as "<kind>_<n>" unless overridden with Named.
type Builder struct {
	nodes    []Node
	nextName string
	counter  map[Kind]int
	err      error
}

// NewBuilder returns an empty pipeline builder.
func NewBuilder() *Builder {
	return &Builder{counter: make(map[Kind]int)}
}

// Named sets the name of the next node added.
func (b *Builder) Named(name string) *Builder {
	b.nextName = name
	return b
}

func (b *Builder) add(n Node) *Builder {
	if b.err != nil {
		return b
	}
	if b.nextName != "" {
		n.Name = b.nextName
		b.nextName = ""
	} else {
		b.counter[n.Kind]++
		n.Name = fmt.Sprintf("%s_%d", n.Kind, b.counter[n.Kind])
	}
	if len(b.nodes) > 0 {
		n.Input = b.nodes[len(b.nodes)-1].Name
	} else if !n.IsSource() {
		b.err = fmt.Errorf("pipeline: first node must be a source, got %s", n.Kind)
		return b
	}
	b.nodes = append(b.nodes, n)
	return b
}

// Interleave appends a shard reader over the named catalog, reading
// parallelism shards at once.
func (b *Builder) Interleave(catalog string, parallelism int) *Builder {
	return b.add(Node{Kind: KindInterleave, Catalog: catalog, Parallelism: parallelism})
}

// Map appends a (parallelizable) Map over the named UDF.
func (b *Builder) Map(udfName string, parallelism int) *Builder {
	return b.add(Node{Kind: KindMap, UDF: udfName, Parallelism: parallelism})
}

// Filter appends a Filter over the named predicate UDF at parallelism 1;
// like a Map's, its parallelism is a knob the planner may raise.
func (b *Builder) Filter(udfName string) *Builder {
	return b.add(Node{Kind: KindFilter, UDF: udfName})
}

// Shuffle appends a buffered shuffle.
func (b *Builder) Shuffle(bufferSize int) *Builder {
	return b.add(Node{Kind: KindShuffle, BufferSize: bufferSize})
}

// Repeat appends a repeat (-1 = infinite).
func (b *Builder) Repeat(count int64) *Builder {
	return b.add(Node{Kind: KindRepeat, Count: count})
}

// Batch appends a batch of the given size.
func (b *Builder) Batch(size int) *Builder {
	return b.add(Node{Kind: KindBatch, BatchSize: size})
}

// Prefetch appends a prefetch buffer.
func (b *Builder) Prefetch(bufferSize int) *Builder {
	return b.add(Node{Kind: KindPrefetch, BufferSize: bufferSize})
}

// Cache appends an in-memory cache.
func (b *Builder) Cache() *Builder {
	return b.add(Node{Kind: KindCache})
}

// Take appends a stream truncation.
func (b *Builder) Take(count int64) *Builder {
	return b.add(Node{Kind: KindTake, Count: count})
}

// ZipOf merges two or more finished branch graphs under a Zip node that
// pairs one element from each branch per output, and returns a Builder
// positioned on the Zip so the combined pipeline can continue fluently
// (.Batch(...).Build()). Branch node names must be unique across branches
// — use Named or distinct catalogs to disambiguate — and branches cannot
// carry their own outer parallelism (that knob belongs to the combined
// graph).
func ZipOf(branches ...*Graph) *Builder {
	return combine(KindZip, branches)
}

// ConcatOf merges two or more finished branch graphs under a Concat node
// that drains each branch in order, returning a Builder positioned on the
// Concat node.
func ConcatOf(branches ...*Graph) *Builder {
	return combine(KindConcat, branches)
}

func combine(kind Kind, branches []*Graph) *Builder {
	b := NewBuilder()
	if len(branches) < 2 {
		b.err = fmt.Errorf("pipeline: %s needs at least two branches, got %d", kind, len(branches))
		return b
	}
	seen := make(map[string]bool)
	inputs := make([]string, 0, len(branches))
	for i, br := range branches {
		if br == nil {
			b.err = fmt.Errorf("pipeline: %s branch %d is nil", kind, i)
			return b
		}
		if err := br.Validate(); err != nil {
			b.err = fmt.Errorf("pipeline: %s branch %d: %w", kind, i, err)
			return b
		}
		if br.OuterParallelism > 1 {
			b.err = fmt.Errorf("pipeline: %s branch %d has outer parallelism %d; set it on the combined graph instead", kind, i, br.OuterParallelism)
			return b
		}
		for _, n := range br.Nodes {
			if seen[n.Name] {
				b.err = fmt.Errorf("pipeline: %s branches share node name %q", kind, n.Name)
				return b
			}
			seen[n.Name] = true
			b.nodes = append(b.nodes, n)
		}
		inputs = append(inputs, br.Output)
	}
	b.counter[kind]++
	name := fmt.Sprintf("%s_%d", kind, b.counter[kind])
	if seen[name] {
		b.err = fmt.Errorf("pipeline: %s branches already use node name %q", kind, name)
		return b
	}
	b.nodes = append(b.nodes, Node{Name: name, Kind: kind, Inputs: inputs})
	return b
}

// Build finalizes and validates the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("pipeline: empty builder")
	}
	g := &Graph{
		Nodes:  append([]Node(nil), b.nodes...),
		Output: b.nodes[len(b.nodes)-1].Name,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and static workloads.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
