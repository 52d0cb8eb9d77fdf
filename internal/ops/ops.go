// Package ops implements Plumber's analysis layer (§4.4 and Appendix A):
// operational analysis over traced counters. It converts raw per-Dataset
// statistics into resource-accounted rates —
//
//   - visit ratios V_i translating each node's completions into root units
//     (minibatches),
//   - CPU rates R_i in minibatches/second/core,
//   - I/O costs in bytes/minibatch for data sources, and
//   - materialization costs (cardinality n_i × byte ratio b_i) for cache
//     placement,
//
// plus dataset-size estimation from (possibly subsampled) file observations
// and cacheability analysis via the transitive random-seed relation (§B.1).
package ops

import (
	"fmt"
	"math"
	"strings"

	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// NodeAnalysis is the operationalized view of one Dataset.
type NodeAnalysis struct {
	// Name, Kind and Parallelism echo the traced program.
	Name        string
	Kind        pipeline.Kind
	Parallelism int
	// Parallelizable mirrors the program's knob legality.
	Parallelizable bool

	// Completions is C_i, items of work completed at this node.
	Completions int64
	// CPUSeconds is active CPU time attributed to the node.
	CPUSeconds float64

	// VisitRatio is V_i: mean completions here per root completion.
	VisitRatio float64
	// LocalRate r_i is completions per CPU-core-second at this node.
	// +Inf for nodes with no measurable CPU cost.
	LocalRate float64
	// Rate R_i is the resource-accounted rate: root minibatches per second
	// per core attributable to this node (LocalRate / VisitRatio).
	Rate float64
	// ScaledCapacity is Parallelism × Rate: the node's current throughput
	// ceiling in minibatches/second; Bottleneck is the node where it is
	// lowest.
	ScaledCapacity float64

	// IOBytesPerMinibatch is filesystem bytes needed per root minibatch
	// (sources only; 0 elsewhere).
	IOBytesPerMinibatch float64

	// BytesPerElement is b_i, mean bytes of one produced element.
	BytesPerElement float64
	// Cardinality is n_i, the projected number of elements this node would
	// produce over the full (finite) dataset; +Inf past an infinite Repeat.
	Cardinality float64
	// MaterializedBytes is n_i × b_i: memory needed to cache this node's
	// output. +Inf when Cardinality is infinite.
	MaterializedBytes float64
	// Cacheable reports whether inserting a cache above this node is legal.
	Cacheable bool
	// CacheVeto explains why not, when Cacheable is false.
	CacheVeto string
}

// Analysis is the full operationalized pipeline model.
type Analysis struct {
	// Snapshot is the trace this analysis was derived from.
	Snapshot *trace.Snapshot
	// Nodes are ordered source -> root.
	Nodes []NodeAnalysis
	// ObservedRate is X_0 = C_0/T in minibatches/second. C_0 is the root's
	// completions, or for a trace its rule cut the root completions at the
	// cut (trace.Snapshot.Completions): fractional, and below one when the
	// rate settled inside the first minibatch.
	ObservedRate float64
	// DatasetBytes is the estimated stored dataset size, rescaled from the
	// observed file subsample (§A: (m/n)·E[Σ s]).
	DatasetBytes float64
	// ObservedFiles and TotalFiles describe the subsample.
	ObservedFiles int
	TotalFiles    int
}

// Analyze operationalizes a trace snapshot. reg resolves UDF randomness for
// cache legality; it may be nil, in which case all UDFs are treated as
// deterministic.
//
// A trace cut by its stop rule is read at the cut, not from the counters the
// cancel left behind: C_0 is the cut, and the recording stage — the Batch
// whose input the rule read — made what it pulled over its batch size, so
// the partial minibatch it flushed when canceled mid-fill is no completion,
// and its visit ratio is its shape's.
func Analyze(snap *trace.Snapshot, reg *udf.Registry) (*Analysis, error) {
	chain, err := snap.Graph.Topo()
	if err != nil {
		return nil, err
	}
	statsChain, err := snap.ChainStats()
	if err != nil {
		return nil, err
	}
	root := statsChain[len(statsChain)-1]
	rootCompletions, cut := snap.Completions()
	if rootCompletions <= 0 {
		return nil, fmt.Errorf("ops: snapshot has no completed minibatches at root %q", root.Name)
	}
	// made is C_i, what each node completed in the trace's window.
	made := make([]float64, len(chain))
	for i, n := range chain {
		made[i] = float64(statsChain[i].ElementsProduced)
		if cut && n.Name == snap.Run.Stage {
			made[i] = float64(statsChain[i].ElementsConsumed) / float64(n.BatchSize)
		}
	}
	T := snap.Duration.Seconds()
	if T <= 0 {
		return nil, fmt.Errorf("ops: snapshot has non-positive duration %v", snap.Duration)
	}

	a := &Analysis{
		Snapshot:      snap,
		ObservedRate:  rootCompletions / T,
		ObservedFiles: len(snap.Files),
		TotalFiles:    snap.TotalFiles,
	}

	// Dataset size: rescale the observed file-byte subsample to the full
	// catalog (§A "to deal with large datasets ... rescale by m/n") — source
	// by source when the trace counted each one's shards.
	bySource := sourceBytes(snap, chain)
	observed := float64(snap.ObservedFileBytes())
	switch {
	case bySource != nil:
		for _, b := range bySource {
			a.DatasetBytes += b
		}
	case a.ObservedFiles > 0 && a.TotalFiles > a.ObservedFiles:
		a.DatasetBytes = observed * float64(a.TotalFiles) / float64(a.ObservedFiles)
	default:
		a.DatasetBytes = observed
	}

	// Pass 1: visit ratios and rates.
	visit := visitRatios(chain, statsChain, made, rootCompletions)
	nodes := make([]NodeAnalysis, len(chain))
	for i, n := range chain {
		ns := statsChain[i]
		na := NodeAnalysis{
			Name:           n.Name,
			Kind:           n.Kind,
			Parallelism:    n.EffectiveParallelism(),
			Parallelizable: n.Parallelizable(),
			Completions:    ns.ElementsProduced,
			CPUSeconds:     ns.CPUSeconds(),
			VisitRatio:     visit[n.Name],
		}
		if na.CPUSeconds > 0 {
			na.LocalRate = made[i] / na.CPUSeconds
		} else {
			na.LocalRate = math.Inf(1)
		}
		if na.VisitRatio > 0 {
			na.Rate = na.LocalRate / na.VisitRatio
		} else {
			na.Rate = math.Inf(1)
		}
		na.ScaledCapacity = float64(na.Parallelism) * na.Rate
		if made[i] > 0 {
			na.BytesPerElement = float64(ns.BytesProduced) / made[i]
			if n.IsSource() { // bytes per record x records per minibatch: read-ahead is not demand
				na.IOBytesPerMinibatch = float64(ns.BytesRead) / made[i] * na.VisitRatio
			}
		}
		nodes[i] = na
	}

	// Pass 2 (source -> root, in topo order so every input precedes its
	// consumer): cardinality and materialization (§A 2). A source's
	// cardinality is its share of the estimated dataset bytes times its
	// records-per-byte; every other node derives its cardinality from its
	// inputs' — most multiply by the local input/output completion ratio,
	// Zip pairs (min over inputs), Concat appends (sum over inputs).
	// Infinite Repeat makes everything above it uncacheable.
	var totalRead float64
	for i, n := range chain {
		if n.IsSource() {
			totalRead += float64(statsChain[i].BytesRead)
		}
	}
	card := make(map[string]float64, len(chain))
	for i := range nodes {
		n := chain[i]
		ns := statsChain[i]
		var c float64
		switch {
		case n.IsSource():
			// share of DatasetBytes × records-per-byte; the BytesRead
			// terms cancel into produced_i / totalRead.
			if b, ok := bySource[n.Name]; ok && ns.BytesRead > 0 {
				c = b * float64(ns.ElementsProduced) / float64(ns.BytesRead)
			} else if totalRead > 0 {
				c = a.DatasetBytes * float64(ns.ElementsProduced) / totalRead
			}
		case n.Kind == pipeline.KindRepeat && n.Count < 0:
			c = math.Inf(1)
		case n.Kind == pipeline.KindRepeat:
			c = card[n.Input] * float64(n.Count)
		case n.Kind == pipeline.KindTake:
			c = math.Min(card[n.Input], float64(n.Count))
		case n.Kind == pipeline.KindZip:
			c = math.Inf(1)
			for _, in := range n.Inputs {
				c = math.Min(c, card[in])
			}
		case n.Kind == pipeline.KindConcat:
			for _, in := range n.Inputs {
				c += card[in]
			}
		default:
			c = card[n.Input]
			if consumed, produced, ok := pulled(n, ns.ElementsConsumed, made[i]); ok {
				c *= produced / consumed
			}
		}
		card[n.Name] = c
		if math.IsInf(c, 1) {
			nodes[i].Cardinality = math.Inf(1)
			nodes[i].MaterializedBytes = math.Inf(1)
		} else {
			nodes[i].Cardinality = c
			nodes[i].MaterializedBytes = c * nodes[i].BytesPerElement
		}
	}

	// Pass 3 (source -> root): cacheability via the randomness closure,
	// OR-ed over a node's inputs so a random branch taints everything it
	// feeds (§B.1).
	veto := make(map[string]string, len(chain))
	for i := range nodes {
		n := chain[i]
		vetoHere := ""
		for _, in := range n.InputNames() {
			if v := veto[in]; v != "" {
				vetoHere = v
				break
			}
		}
		if vetoHere == "" {
			switch {
			case n.Kind == pipeline.KindShuffle:
				vetoHere = fmt.Sprintf("shuffle %q accesses a random seed", n.Name)
			case (n.Kind == pipeline.KindMap || n.Kind == pipeline.KindFilter) && reg != nil:
				isRand, err := reg.IsRandom(n.UDF)
				if err != nil {
					return nil, err
				}
				if isRand {
					vetoHere = fmt.Sprintf("UDF %q transitively touches a random seed", n.UDF)
				}
			}
		}
		veto[n.Name] = vetoHere
		switch {
		case vetoHere != "":
			nodes[i].Cacheable = false
			nodes[i].CacheVeto = vetoHere
		case math.IsInf(nodes[i].Cardinality, 1):
			nodes[i].Cacheable = false
			nodes[i].CacheVeto = "infinite cardinality (inside an unbounded repeat)"
		case n.Kind == pipeline.KindPrefetch || n.Kind == pipeline.KindCache:
			nodes[i].Cacheable = false
			nodes[i].CacheVeto = fmt.Sprintf("%s nodes are not cache points", n.Kind)
		default:
			nodes[i].Cacheable = true
		}
	}

	a.Nodes = nodes
	return a, nil
}

// sourceBytes estimates the stored bytes behind every source (§A): the sizes
// of its files the trace saw, rescaled by its own m/n. A file belongs to the
// source whose catalog names a directory of its path, as in the collector's
// attribution of reads. Nil when the snapshot has no per-source shard counts.
func sourceBytes(snap *trace.Snapshot, chain []pipeline.Node) map[string]float64 {
	if len(snap.SourceFiles) == 0 {
		return nil
	}
	out := make(map[string]float64, len(snap.SourceFiles))
	for _, n := range chain {
		m, ok := snap.SourceFiles[n.Name]
		if !ok {
			continue
		}
		seen, files := 0.0, 0
		for path, size := range snap.Files {
			if len(snap.SourceFiles) == 1 || strings.Contains(path, "/"+n.Catalog+"/") {
				seen, files = seen+float64(size), files+1
			}
		}
		if files > 0 && m > files {
			seen = seen * float64(m) / float64(files)
		}
		out[n.Name] = seen
	}
	return out
}

// pulled returns what the stage took from its inputs and what it made of it
// (made, its C_i): the local ratio visit ratios and cardinalities both chain
// through. A trace stopped mid-stream catches a stage with elements pulled
// and not yet turned into output (a partial batch, a shuffle buffer); a
// stage that cannot drop elements never needs more per output than its
// shape says, so that excess is cut off. ok is false for a stage that
// counted no pulls or no output.
func pulled(n pipeline.Node, took int64, made float64) (consumed, produced float64, ok bool) {
	if took <= 0 || made <= 0 {
		return 0, 0, false
	}
	consumed, produced = float64(took), made
	most := produced
	switch n.Kind {
	case pipeline.KindMap, pipeline.KindFilter:
		most = consumed // may drop: whatever it pulled, it needed
	case pipeline.KindBatch:
		most *= float64(n.BatchSize)
	case pipeline.KindZip:
		most *= float64(len(n.Inputs))
	}
	return math.Min(consumed, most), produced, true
}

// visitRatios returns V_i by node name, from made (C_i, by chain index) and
// the root's c0. The root's is 1; an input's is its consumer's times what
// the consumer pulled from it per element produced, so a stage that ran
// ahead of the root — every parallel stage does, by its edge's depth — is
// charged what was asked of it, not what it has in flight. A Zip pulls from
// each input equally; a Concat's pulls split by what each input produced.
// Below a consumer that counted no pulls (a cache serving from memory) the
// ratio falls back to completions per root completion.
func visitRatios(chain []pipeline.Node, st []*trace.NodeStats, made []float64, c0 float64) map[string]float64 {
	byName := make(map[string]float64, len(chain))
	for i, n := range chain {
		byName[n.Name] = made[i]
	}
	v := map[string]float64{chain[len(chain)-1].Name: 1}
	for j := len(chain) - 1; j >= 0; j-- { // topological order reversed: consumers first
		n := chain[j]
		consumed, produced, ok := pulled(n, st[j].ElementsConsumed, made[j])
		var all float64
		for _, in := range n.InputNames() {
			all += byName[in]
		}
		for _, in := range n.InputNames() {
			switch {
			case !ok:
				v[in] = byName[in] / c0
			case n.Kind == pipeline.KindZip:
				v[in] = v[n.Name] * consumed / produced / float64(len(n.Inputs))
			case n.Kind == pipeline.KindConcat && all > 0:
				v[in] = v[n.Name] * consumed / produced * byName[in] / all
			default:
				v[in] = v[n.Name] * consumed / produced
			}
		}
	}
	return v
}

// AtOrBelow returns the set of node names at or below the named node — the
// node itself plus the sub-graph feeding it. This is the region a warm
// cache above name makes idle in steady state.
func (a *Analysis) AtOrBelow(name string) (map[string]bool, error) {
	below, err := a.Snapshot.Graph.Below(name)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(below)+1)
	out[name] = true
	for _, n := range below {
		out[n.Name] = true
	}
	return out, nil
}

// Node returns the analysis entry for the named node.
func (a *Analysis) Node(name string) (NodeAnalysis, error) {
	for _, n := range a.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return NodeAnalysis{}, fmt.Errorf("ops: analysis has no node %q", name)
}

// Bottleneck returns the node with the lowest current throughput ceiling
// (ScaledCapacity), i.e. the pipeline's bottleneck under the operational
// model. Infinite-capacity nodes — zero-cost plumbing (prefetch, repeat,
// take, cache) and any node with no measurable CPU in the trace — are
// skipped explicitly. Ties break deterministically in source-to-root order
// (the earliest node wins). On an all-infinite trace, where no node has a
// measurable cost, the source is returned as the deterministic fallback.
func (a *Analysis) Bottleneck() NodeAnalysis {
	best := -1
	for i, n := range a.Nodes {
		if math.IsInf(n.ScaledCapacity, 1) {
			continue
		}
		if best < 0 || n.ScaledCapacity < a.Nodes[best].ScaledCapacity {
			best = i
		}
	}
	if best < 0 {
		return a.Nodes[0]
	}
	return a.Nodes[best]
}
