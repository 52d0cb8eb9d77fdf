// Package trace implements Plumber's tracing layer (§4.1): per-Dataset
// counters for elements processed, CPU time spent, and bytes per element; a
// system-wide filename-to-bytes map for cache sizing; and periodic snapshot
// dumps that join the counters with the serialized pipeline program so the
// analyzer can rebuild an in-memory model of the dataflow.
//
// The counters a node needs total well under the paper's 144-byte budget.
// CPU timers follow the paper's discipline: they stop when a Dataset calls
// into its child and restart when control returns, so blocked time is never
// attributed (§B "Measuring CPU").
//
// Under concurrent multi-tenant execution (internal/host), each tenant
// pipeline carries its own Collector labeled with SetTenant: the engine's
// per-worker LocalStats shards flush into that tenant's NodeStats and
// nowhere else, so one shared engine run emits N independently attributable
// traces — the per-tenant shard namespace is the collector itself.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/pipeline"
)

// Machine describes the host executing the pipeline: the resource budget
// the LP allocates against.
type Machine struct {
	// Name labels the setup, e.g. "setup-a".
	Name string `json:"name"`
	// Cores is the CPU core count.
	Cores int `json:"cores"`
	// MemoryBytes is usable RAM for caches.
	MemoryBytes int64 `json:"memory_bytes"`
	// SchedulableCores is how many cores the traced process could burn
	// modeled CPU on at once (engine.SchedulableCores) when the trace burned
	// it (engine.Options.Spin); 0 when modeled CPU was only accounted. A
	// prediction for the job on this host counts no more cores than these.
	SchedulableCores int `json:"schedulable_cores,omitempty"`
}

// NodeStats is the per-Dataset counter block.
type NodeStats struct {
	// Name and Kind identify the node within the joined program.
	Name string        `json:"name"`
	Kind pipeline.Kind `json:"kind"`
	// Parallelism is the knob value during tracing.
	Parallelism int `json:"parallelism"`
	// ElementsProduced counts completions C_i at this node.
	ElementsProduced int64 `json:"elements_produced"`
	// ElementsConsumed counts items pulled from the child.
	ElementsConsumed int64 `json:"elements_consumed"`
	// BytesProduced sums the sizes of produced elements.
	BytesProduced int64 `json:"bytes_produced"`
	// BytesRead sums filesystem bytes attributed to this node (sources).
	BytesRead int64 `json:"bytes_read"`
	// CPUNanos is active (non-blocked) CPU time in nanoseconds.
	CPUNanos int64 `json:"cpu_nanos"`
	// WallNanos is wallclock time spent inside Next including blocking;
	// kept for the wallclock-vs-CPU-timer ablation.
	WallNanos int64 `json:"wall_nanos"`
	// Retries counts transient failures this node absorbed by retrying
	// (source reads and UDF invocations under an engine retry policy).
	Retries int64 `json:"retries,omitempty"`
	// Errors counts failures that surfaced past the retry policy — the
	// errors the node's consumer actually saw.
	Errors int64 `json:"errors,omitempty"`
	// GaveUp counts transient failures abandoned because the retry policy's
	// attempt budget or per-element deadline ran out (a subset of Errors).
	GaveUp int64 `json:"gave_up,omitempty"`
	// HandoffParks counts waiter parks on this node's stage-handoff edge
	// (ring handoff: a producer blocked on its full ring or the consumer on
	// empty rings after the spin window) — the residual synchronization the
	// lock-free edge could not avoid. The channel edge cannot observe its
	// own futex waits, so channel runs report 0.
	HandoffParks int64 `json:"handoff_parks,omitempty"`
	// HandoffSteals is no longer counted: an edge has one consumer, which
	// takes from its producers in turn, so nothing is stolen. It stays zero
	// in new snapshots and is kept for the readers of older ones.
	HandoffSteals int64 `json:"handoff_steals,omitempty"`
}

// CPUSeconds returns accumulated active CPU time in seconds.
func (s *NodeStats) CPUSeconds() float64 { return float64(s.CPUNanos) / 1e9 }

// Snapshot is one periodic dump: the serialized program joined with every
// node's counters, the observed file-size map, and the machine description.
type Snapshot struct {
	// Tenant labels the pipeline's owner when the trace came from a
	// multi-tenant run on a shared engine; empty for single-tenant runs.
	Tenant string `json:"tenant,omitempty"`
	// Graph is the traced pipeline program.
	Graph *pipeline.Graph `json:"graph"`
	// Machine is the host resource budget.
	Machine Machine `json:"machine"`
	// Duration is the tracing timeframe T.
	Duration time.Duration `json:"duration"`
	// Nodes holds per-node counters keyed by node name.
	Nodes map[string]*NodeStats `json:"nodes"`
	// Files maps observed filename -> framed bytes consumed to EOF. A
	// tracer that can Stat the backend (engine.TraceRun) puts the file's
	// size here, so a file read half-way, or twice, still counts once whole.
	Files map[string]int64 `json:"files"`
	// TotalFiles is the catalog's total shard count (known from the
	// serialized program), used to rescale subsampled size estimates.
	TotalFiles int `json:"total_files"`
	// SourceFiles is the same count per source Dataset, by name, when the
	// tracer knows it: a graph's catalogs are not samples of one population,
	// and the rescale then runs source by source.
	SourceFiles map[string]int `json:"source_files,omitempty"`
	// Run says what the traced drain behind this snapshot cost, when one
	// drain was (engine.TraceRun); nil for interval and simulated snapshots.
	Run *Run `json:"run,omitempty"`
	// Progress is the stream the drain's stop rule was shown: to the cut when
	// it fired, all of it when it never did; none without a rule, and none
	// in an interval (Delta). Replayed to the rule it reproduces the cut.
	Progress Progress `json:"progress,omitempty"`
}

// Sample is one point of a progress stream: N units had arrived At after the
// trace began. A lump of k units that arrives at one instant is one sample,
// not k, so a stream is as long as its arrivals are many.
type Sample struct {
	At time.Duration
	N  int64
}

// Progress is a progress stream, At and N ascending. In JSON it is a flat
// array of integer pairs: each sample's nanoseconds and count since the one
// before (the first's since the trace began and zero). Deltas are short, and
// integers read back exactly: a stream read back is the stream written,
// sample for sample, and a rule replayed on it reads the same rate to the
// bit.
type Progress []Sample

// MarshalJSON writes the stream delta-encoded.
func (p Progress) MarshalJSON() ([]byte, error) {
	d, prev := make([]int64, 0, 2*len(p)), Sample{}
	for _, s := range p {
		d, prev = append(d, int64(s.At-prev.At), s.N-prev.N), s
	}
	return json.Marshal(d)
}

// UnmarshalJSON reads a delta-encoded stream, and rejects one whose time or
// count is negative or goes backwards.
func (p *Progress) UnmarshalJSON(b []byte) error {
	var d []int64
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if len(d)%2 != 0 {
		return fmt.Errorf("progress: %d integers, want pairs", len(d))
	}
	*p = make(Progress, 0, len(d)/2)
	var s Sample
	for i := 0; i < len(d); i += 2 {
		s.At, s.N = s.At+time.Duration(d[i]), s.N+d[i+1]
		if d[i] < 0 || d[i+1] < 0 || s.At < 0 || s.N < 0 {
			return fmt.Errorf("progress: sample %d goes backwards or overflows", i/2)
		}
		*p = append(*p, s)
	}
	return nil
}

// Run is the cost of one traced drain, from instantiation to the end of
// Close. Duration is not it: a drain cut by a rule reports the time its cut
// takes at the settled rate.
type Run struct {
	// Seconds is the drain's wall time.
	Seconds float64 `json:"trace_seconds"`
	// RootCompletions counts the root elements the consumer took before the
	// cut. What it is handed after — the partial minibatch a Batch canceled
	// mid-fill delivers, what a root prefetch had ready — is not counted.
	RootCompletions int64 `json:"trace_root_completions"`
	// Samples is the length of the progress stream, len(Snapshot.Progress):
	// at the cut, or when the drain ended (0 without a rule).
	Samples int `json:"trace_samples"`
	// Settled is true when the rule cut the drain; false means it ran to
	// EOF or to its cap.
	Settled bool `json:"settled"`
	// Stage names the recording stage whose stream the rule cut: the Batch
	// the walk down from the root found. Empty when the stream was the
	// root's own completions, or the drain was not cut.
	Stage string `json:"trace_stage,omitempty"`
	// Cut counts the elements Stage had pulled before the lump the rule
	// fired at — root completions when Stage is empty. It is where the
	// trace's window ends: C_0, the root completions the analysis reads, is
	// Cut over the elements Stage pulls per output (Snapshot.Completions).
	Cut int64 `json:"trace_cut,omitempty"`
}

// Completions returns C_0, the root completions in the trace's window. For
// a drain its rule cut (cut true) that is Run.Cut over the elements the
// recording stage pulls per output: fractional, and below one when the rate
// settled inside the first minibatch. For any other snapshot — a whole or
// capped drain, an interval, a simulation — it is the root's
// ElementsProduced.
func (s *Snapshot) Completions() (c0 float64, cut bool) {
	if r := s.Run; r != nil && r.Settled {
		if r.Stage == "" {
			return float64(r.Cut), true
		}
		if n, err := s.Graph.Node(r.Stage); err == nil && n.BatchSize > 0 {
			return float64(r.Cut) / float64(n.BatchSize), true
		}
	}
	if root, err := s.RootStats(); err == nil {
		return float64(root.ElementsProduced), false
	}
	return 0, false
}

// Delta returns the activity between prev and s as a new snapshot: every
// node counter is subtracted pairwise (nodes absent from prev — e.g. a cache
// inserted by a live reconfiguration — contribute their full counts), and
// Duration is the interval between the two capture times. Gauges
// (Parallelism) keep s's current value; Files and TotalFiles are carried
// over as cumulative high-water state rather than differenced, since the
// analyzer uses them for dataset-size estimation, not rates. Counters are
// monotonic, so a delta between two snapshots of the same collector never
// goes negative.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	out := &Snapshot{
		Tenant:      s.Tenant,
		Graph:       s.Graph.Clone(),
		Machine:     s.Machine,
		Duration:    s.Duration - prev.Duration,
		Nodes:       make(map[string]*NodeStats, len(s.Nodes)),
		Files:       make(map[string]int64, len(s.Files)),
		TotalFiles:  s.TotalFiles,
		SourceFiles: s.SourceFiles,
	}
	for name, ns := range s.Nodes {
		cp := *ns
		if old, ok := prev.Nodes[name]; ok {
			cp.ElementsProduced -= old.ElementsProduced
			cp.ElementsConsumed -= old.ElementsConsumed
			cp.BytesProduced -= old.BytesProduced
			cp.BytesRead -= old.BytesRead
			cp.CPUNanos -= old.CPUNanos
			cp.WallNanos -= old.WallNanos
			cp.Retries -= old.Retries
			cp.Errors -= old.Errors
			cp.GaveUp -= old.GaveUp
			cp.HandoffParks -= old.HandoffParks
			cp.HandoffSteals -= old.HandoffSteals
		}
		out.Nodes[name] = &cp
	}
	for p, b := range s.Files {
		out.Files[p] = b
	}
	return out
}

// RunCost returns what the drain behind s cost; zero when s is not one
// drain's snapshot.
func (s *Snapshot) RunCost() Run {
	if s.Run == nil {
		return Run{}
	}
	return *s.Run
}

// RootStats returns the counters of the root node.
func (s *Snapshot) RootStats() (*NodeStats, error) {
	ns, ok := s.Nodes[s.Graph.Output]
	if !ok {
		return nil, fmt.Errorf("trace: snapshot missing root node %q", s.Graph.Output)
	}
	return ns, nil
}

// ObservedFileBytes sums the bytes of all observed files.
func (s *Snapshot) ObservedFileBytes() int64 {
	var total int64
	for _, b := range s.Files {
		total += b
	}
	return total
}

// Marshal serializes the snapshot to compact JSON: its progress stream is
// thousands of integers.
func (s *Snapshot) Marshal() ([]byte, error) {
	return json.Marshal(s)
}

// UnmarshalSnapshot parses a serialized snapshot, which must carry the
// traced program, a counter block for every node it names, and, when it
// says what its drain cost, the whole stream its rule read.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("trace: unmarshal snapshot: %w", err)
	}
	if s.Graph == nil {
		return nil, fmt.Errorf("trace: unmarshal snapshot: no graph")
	}
	for name, ns := range s.Nodes {
		if ns == nil {
			return nil, fmt.Errorf("trace: unmarshal snapshot: node %q has no counters", name)
		}
	}
	if s.Run != nil && s.Run.Samples != len(s.Progress) {
		return nil, fmt.Errorf("trace: unmarshal snapshot: the run read %d samples, the stream holds %d", s.Run.Samples, len(s.Progress))
	}
	return &s, nil
}

// Collector accumulates counters during one tracing run. Handles returned
// by Node are safe for concurrent use by the engine's worker goroutines.
type Collector struct {
	graph   *pipeline.Graph
	machine Machine
	tenant  string

	mu    sync.Mutex
	nodes map[string]*NodeStats
	files map[string]int64
	start time.Time

	// sourceOfCatalog names the source reading each catalog; a catalog's
	// shards live under ".../<catalog>/...".
	sourceOfCatalog map[string]string
}

// NewCollector returns a collector for one run of graph on machine.
func NewCollector(graph *pipeline.Graph, machine Machine) (*Collector, error) {
	order, err := graph.Topo()
	if err != nil {
		return nil, err
	}
	c := &Collector{
		graph:           graph.Clone(),
		machine:         machine,
		nodes:           make(map[string]*NodeStats, len(order)),
		files:           make(map[string]int64),
		start:           time.Now(),
		sourceOfCatalog: make(map[string]string),
	}
	for _, n := range order {
		c.nodes[n.Name] = &NodeStats{Name: n.Name, Kind: n.Kind, Parallelism: n.EffectiveParallelism()}
		if n.IsSource() {
			c.sourceOfCatalog[n.Catalog] = n.Name
		}
	}
	return c, nil
}

// SetTenant labels the collector (and every snapshot it emits) with the
// owning tenant, making traces from a shared multi-tenant engine run
// attributable. Call before the run starts.
func (c *Collector) SetTenant(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant = name
}

// SetGraph replaces the collector's program with the live-reconfigured
// graph: counters of surviving nodes keep accumulating, nodes the rewrite
// inserted (cache, prefetch) get fresh counter blocks, and every node's
// Parallelism gauge is updated to the new knob value. Counters of removed
// nodes are retained in the map (their totals remain part of the run's
// history) but drop out of ChainStats and analysis, which follow the graph.
// The engine calls this from Reconfigure before the rebuilt tree resolves
// its handles.
func (c *Collector) SetGraph(g *pipeline.Graph) error {
	order, err := g.Topo()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.graph = g.Clone()
	for _, n := range order {
		if n.IsSource() {
			c.sourceOfCatalog[n.Catalog] = n.Name
		}
		if ns, ok := c.nodes[n.Name]; ok {
			ns.Parallelism = n.EffectiveParallelism()
			continue
		}
		c.nodes[n.Name] = &NodeStats{Name: n.Name, Kind: n.Kind, Parallelism: n.EffectiveParallelism()}
	}
	return nil
}

// Node returns the stats handle for the named node.
func (c *Collector) Node(name string) (*NodeStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[name]
	if !ok {
		return nil, fmt.Errorf("trace: collector has no node %q", name)
	}
	return ns, nil
}

// ObserveRead implements connector.ReadObserver: a read of one of the graph's
// catalogs is recorded in the filename map and credited to its source. Any
// other read is another pipeline's on the same connector, and is dropped.
func (c *Collector) ObserveRead(path string, n int64) {
	c.mu.Lock()
	var ns *NodeStats
	for cat, name := range c.sourceOfCatalog {
		if strings.Contains(path, "/"+cat+"/") {
			c.files[path] += n
			ns = c.nodes[name]
			break
		}
	}
	c.mu.Unlock()
	if ns != nil {
		atomic.AddInt64(&ns.BytesRead, n)
	}
}

// AddHandoff records stage-handoff waiter parks (steals are no longer
// counted: see HandoffSteals). The engine publishes them once per edge at
// iterator Close (a ring-level atomic, not a per-element counter).
func AddHandoff(ns *NodeStats, parks int64) {
	if parks != 0 {
		atomic.AddInt64(&ns.HandoffParks, parks)
	}
}

// Snapshot captures the current counters. duration is the tracing timeframe
// T; pass 0 to use wallclock since collector creation. totalFiles is the
// catalog's shard count.
func (c *Collector) Snapshot(duration time.Duration, totalFiles int) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if duration <= 0 {
		duration = time.Since(c.start)
	}
	snap := &Snapshot{
		Tenant:     c.tenant,
		Graph:      c.graph.Clone(),
		Machine:    c.machine,
		Duration:   duration,
		Nodes:      make(map[string]*NodeStats, len(c.nodes)),
		Files:      make(map[string]int64, len(c.files)),
		TotalFiles: totalFiles,
	}
	for name, ns := range c.nodes {
		cp := NodeStats{
			Name:             ns.Name,
			Kind:             ns.Kind,
			Parallelism:      ns.Parallelism,
			ElementsProduced: atomic.LoadInt64(&ns.ElementsProduced),
			ElementsConsumed: atomic.LoadInt64(&ns.ElementsConsumed),
			BytesProduced:    atomic.LoadInt64(&ns.BytesProduced),
			BytesRead:        atomic.LoadInt64(&ns.BytesRead),
			CPUNanos:         atomic.LoadInt64(&ns.CPUNanos),
			WallNanos:        atomic.LoadInt64(&ns.WallNanos),
			Retries:          atomic.LoadInt64(&ns.Retries),
			Errors:           atomic.LoadInt64(&ns.Errors),
			GaveUp:           atomic.LoadInt64(&ns.GaveUp),
			HandoffParks:     atomic.LoadInt64(&ns.HandoffParks),
			HandoffSteals:    atomic.LoadInt64(&ns.HandoffSteals),
		}
		snap.Nodes[name] = &cp
	}
	for p, b := range c.files {
		snap.Files[p] = b
	}
	return snap
}

// ChainStats returns snapshot counters in topological order, sources first
// and the root last (for a linear chain: source -> root).
func (s *Snapshot) ChainStats() ([]*NodeStats, error) {
	chain, err := s.Graph.Topo()
	if err != nil {
		return nil, err
	}
	out := make([]*NodeStats, 0, len(chain))
	for _, n := range chain {
		ns, ok := s.Nodes[n.Name]
		if !ok {
			return nil, fmt.Errorf("trace: snapshot missing node %q", n.Name)
		}
		out = append(out, ns)
	}
	return out, nil
}
