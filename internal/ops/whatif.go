package ops

import "math"

// Hypothetical describes a what-if knob configuration over an analyzed
// pipeline: the shape the planner intends to deploy, expressed relative to
// the traced program. The zero value describes the traced shape itself
// (except OuterParallelism, which defaults to the traced graph's value only
// in Efficiency's baseline — set it explicitly when predicting).
type Hypothetical struct {
	// Parallelism overrides the parallelism knob of the named Datasets;
	// absent (or non-positive) entries keep the traced value. Overrides on
	// non-parallelizable Datasets are ignored.
	Parallelism map[string]int
	// CacheAbove names the Dataset whose output a newly inserted cache
	// would materialize; empty means no new cache.
	CacheAbove string
	// WarmCache, with CacheAbove set, predicts the steady state in which
	// the cache serves from memory: every Dataset at or below the cache
	// point drops out of the model. False predicts the fill epoch, where
	// the whole chain still runs.
	WarmCache bool
	// OuterParallelism is the hypothetical whole-pipeline replica count
	// (0 and 1 both mean a single instance).
	OuterParallelism int
	// Cores bounds the aggregate CPU work-conservation ceiling; 0 means
	// unbounded. For predictions that a run on this host is held against,
	// pass the cores the host can actually deliver, not the deployment
	// budget.
	Cores int
	// DiskBandwidth bounds source I/O in bytes/second; 0 means unbounded.
	DiskBandwidth float64
	// SourceBandwidth bounds individual source nodes (by Dataset name) in
	// bytes/second, overriding DiskBandwidth for that node when tighter —
	// the connector's bandwidth hint, so a multi-backend plan does not
	// model cold object storage at local-disk speed. Absent or
	// non-positive entries fall back to DiskBandwidth; a nil map leaves
	// behavior exactly as before.
	SourceBandwidth map[string]float64
}

// Ceiling is what no knob assignment can beat for a hypothetical's cache
// state and resource bounds — the part of PredictRate that parallelism does
// not move, which is what the planner sizes knobs against.
type Ceiling struct {
	// Resource is the minimum of the disk-bandwidth bounds and the aggregate
	// CPU work-conservation bound, in root minibatches/second: fixed by the
	// budget. +Inf when neither binds.
	Resource float64
	// Storage is the disk-bandwidth part of Resource alone (global and
	// per-source): what the declared devices can feed, whatever the CPU.
	Storage float64
	// Sequential is the capacity of the slowest active non-parallelizable
	// Dataset at one pipeline replica (+Inf when none has a measurable
	// cost); only outer parallelism lifts it. SequentialNode names it.
	Sequential     float64
	SequentialNode string
	// CPUPerMinibatch is Σ 1/R_i over the active Datasets: the core-seconds
	// one root minibatch costs, so a pipeline delivering X minibatches/s
	// claims X × CPUPerMinibatch cores (the LP's Σ θ_i, paper §4.4).
	CPUPerMinibatch float64
}

// idle returns the Datasets a warm cache serves in h's steady state — the
// branch feeding the cache (membership, not chain position: on a DAG only
// that branch goes idle) — or nil when everything runs.
func (a *Analysis) idle(h Hypothetical) map[string]bool {
	if !h.WarmCache || h.CacheAbove == "" {
		return nil
	}
	cached, _ := a.AtOrBelow(h.CacheAbove)
	return cached
}

// Measurable reports whether the trace priced this Dataset: a finite,
// positive rate. A Dataset with no measured CPU bounds nothing in the model.
func (n NodeAnalysis) Measurable() bool { return n.Rate > 0 && !math.IsInf(n.Rate, 1) }

// Ceiling evaluates the knob-independent bounds of the hypothetical shape;
// h.Parallelism and h.OuterParallelism are not consulted.
func (a *Analysis) Ceiling(h Hypothetical) Ceiling { return a.ceiling(h, a.idle(h)) }

func (a *Analysis) ceiling(h Hypothetical, idle map[string]bool) Ceiling {
	c := Ceiling{Storage: math.Inf(1), Sequential: math.Inf(1)}
	var ioPerMB float64
	for _, n := range a.Nodes {
		if idle[n.Name] {
			continue // served from the cache in steady state
		}
		if n.Measurable() {
			c.CPUPerMinibatch += 1 / n.Rate
			if cap := float64(n.Parallelism) * n.Rate; !n.Parallelizable && cap < c.Sequential {
				c.Sequential, c.SequentialNode = cap, n.Name
			}
		}
		if n.IOBytesPerMinibatch > 0 {
			ioPerMB += n.IOBytesPerMinibatch
			if v, ok := h.SourceBandwidth[n.Name]; ok && v > 0 {
				c.Storage = math.Min(c.Storage, v/n.IOBytesPerMinibatch)
			}
		}
	}
	if h.DiskBandwidth > 0 && ioPerMB > 0 {
		// One shared device: the global bandwidth bounds the active nodes'
		// aggregate demand, so a DAG's two sources cannot each claim the
		// full budget.
		c.Storage = math.Min(c.Storage, h.DiskBandwidth/ioPerMB)
	}
	c.Resource = c.Storage
	if h.Cores > 0 && c.CPUPerMinibatch > 0 {
		c.Resource = math.Min(c.Resource, float64(h.Cores)/c.CPUPerMinibatch)
	}
	return c
}

// PredictRate returns the modeled throughput ceiling, in root
// minibatches/second, of the hypothetical shape: the minimum of every
// active node's capacity (parallelism × resource-accounted rate, times
// outer parallelism), the aggregate CPU work-conservation bound, and the
// disk-bandwidth bound. +Inf means no active node has measurable cost
// under the model — the pipeline is predicted to no longer bound the
// consumer (e.g. everything is served from a warm cache).
//
// This is the paper's LP objective evaluated at one candidate allocation:
// rates come from a single trace, so no re-run is needed to score a shape.
func (a *Analysis) PredictRate(h Hypothetical) float64 {
	outer := float64(h.OuterParallelism)
	if outer < 1 {
		outer = 1
	}
	idle := a.idle(h)
	c := a.ceiling(h, idle)
	bound := math.Min(c.Resource, c.Sequential*outer)
	for _, n := range a.Nodes {
		if idle[n.Name] || !n.Parallelizable || !n.Measurable() {
			continue
		}
		p := n.Parallelism
		if v, ok := h.Parallelism[n.Name]; ok && v > 0 {
			p = v
		}
		bound = math.Min(bound, float64(p)*n.Rate*outer)
	}
	return bound
}

// Efficiency is the calibration factor relating the model to this host:
// ObservedRate divided by PredictRate of the as-traced shape under the
// given resource bounds, with src the per-source bandwidth hints (nil for
// none), so calibration and prediction see the same storage model. Engine
// overhead, scheduling, and cores the host cannot actually deliver all land
// in this single scalar, which PredictObservedRate multiplies back in.
// Returns 1 when the as-traced shape has no finite modeled bound to
// calibrate against.
func (a *Analysis) Efficiency(cores int, diskBandwidth float64, src map[string]float64) float64 {
	base := a.PredictRate(Hypothetical{
		OuterParallelism: a.Snapshot.Graph.OuterParallelism,
		Cores:            cores,
		DiskBandwidth:    diskBandwidth,
		SourceBandwidth:  src,
	})
	if math.IsInf(base, 1) || base <= 0 {
		return 1
	}
	return a.ObservedRate / base
}

// PredictObservedRate is the what-if prediction a run of the hypothetical
// shape on this host should reproduce: PredictRate scaled by the Efficiency
// calibration. +Inf (an unbounded model) passes through unscaled.
//
// Calibration may discount a storage bound, never lift it: a trace short
// enough to be served from a throttled device's burst allowance observes
// several times the declared bandwidth, and that factor over a disk-bound
// ceiling is a rate the device cannot sustain.
func (a *Analysis) PredictObservedRate(h Hypothetical) float64 {
	r := a.PredictRate(h)
	if math.IsInf(r, 1) {
		return r
	}
	r *= a.Efficiency(h.Cores, h.DiskBandwidth, h.SourceBandwidth)
	return math.Min(r, a.Ceiling(h).Storage)
}
