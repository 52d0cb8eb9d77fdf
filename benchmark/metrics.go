package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"plumber/internal/stats"
)

// metricDef is one declared metric. BENCHMARK.json repeats these tables and
// a test keeps the two equal, so the declaration and the code cannot drift.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a user of the system sees. Every workload prints all of
// them, measured with the product's tracer off unless the name says traced_.
var endToEnd = []metricDef{
	{"job_s", "s", "lower", 0.20},                       // Optimize on the untuned graph to the last minibatch of the last epoch
	{"minibatches_per_s", "1/s", "higher", 0.20},        // minibatches delivered over the whole drain / its wall time
	{"fill_minibatches_per_s", "1/s", "higher", 0.25},   // the same over epoch 1 only: cold cache, cold pools, worker start-up
	{"traced_minibatches_per_s", "1/s", "higher", 0.20}, // minibatches_per_s with a trace.Collector attached, SampleEvery 16
	{"optimize_s", "s", "lower", 0.20},                  // wall time of the plumber.Optimize (or ArbitrateAll) call
	{"prediction_fidelity", "ratio", "higher", 0.12},    // min(p,m)/max(p,m): predicted fill rate against the measured one
	{"allocs_per_example", "count", "lower", 0.05},      // heap objects one untimed drain of the tuned program allocates on one P / examples delivered
	{"live_mem_mib", "MiB", "lower", 0.05},              // heap that survives a forced GC while the tuned pipeline, cache full, is still open
	{"setup_s", "s", "lower", 0.25},                     // generate the catalog, materialize shards, reference drain; median of repeated set-ups
}

// perLayer is measured in the traced pass (--trace 1): the benchmark times
// its own calls into each module's exported functions and reads counts from
// the product's trace.Snapshot. Informational, never gated. Each row is
// measured on every workload; rows that only exist on one workload (doctor
// re-plan, host arbitration) are printed as extras there.
var perLayer = []metricDef{
	{name: "connector.read_ns_per_example", unit: "ns", better: "lower"},   // Open/Read every shard through the workload's connector, no engine
	{name: "connector.read_mib_per_s", unit: "MiB/s", better: "higher"},    // the same loop as a byte rate
	{name: "connector.bytes_read", unit: "bytes", better: "lower"},         // framed bytes one pass reads
	{name: "connector.retries", unit: "count", better: "lower"},            // source-read retries the traced drain absorbed
	{name: "simfs.throttle_wait_fraction", unit: "ratio", better: "lower"}, // share of the read loop spent waiting for the device's token bucket

	{name: "data.decode_ns_per_record", unit: "ns", better: "lower"},        // RecordReader.Next over in-memory shard bytes (framing + CRC)
	{name: "data.decode_allocs_per_record", unit: "count", better: "lower"}, // heap objects per decoded record, pooled buffers
	{name: "data.pool_getput_ns", unit: "ns", better: "lower"},              // one GetBuf+PutBuf of the workload's record size

	{name: "udf.share_of_job", unit: "ratio", better: "lower"}, // modeled CPU-seconds the job burns / job_s (cores kept busy by UDF work)

	{name: "engine.source_ns_per_example", unit: "ns", better: "lower"},          // drain of the tuned graph truncated after the source, no modeled CPU, unthrottled
	{name: "engine.map_ns_per_example", unit: "ns", better: "lower"},             // truncated after the map minus truncated after the source
	{name: "engine.batch_ns_per_example", unit: "ns", better: "lower"},           // truncated after the batch minus truncated after the map
	{name: "engine.prefetch_ns_per_example", unit: "ns", better: "lower"},        // with a root prefetch minus truncated after the batch (negative: the overlap pays)
	{name: "engine.cache_serve_ns_per_example", unit: "ns", better: "lower"},     // epochs 2..k of the same chain with a cache above the batch
	{name: "engine.handoff_ring_ns_per_example", unit: "ns", better: "lower"},    // whole chain under Options.Handoff ring (the default)
	{name: "engine.handoff_channel_ns_per_example", unit: "ns", better: "lower"}, // whole chain under Options.Handoff channel
	{name: "engine.handoff_parks", unit: "count", better: "lower"},               // waiter parks on stage edges in the traced drain
	{name: "engine.handoff_steals", unit: "count", better: "lower"},              // cross-shard steals in the traced drain
	{name: "engine.cpu_ns_per_example", unit: "ns", better: "lower"},             // process CPU time (getrusage) over the untraced drain / examples
	{name: "engine.parallel_minibatches_per_s", unit: "1/s", better: "higher"},   // the job's drain at GOMAXPROCS = nproc (differs from minibatches_per_s on hotpath only)
	{name: "engine.startup_ms", unit: "ms", better: "lower"},                     // engine.New to the first minibatch
	{name: "engine.reconfigure_quiesce_ms", unit: "ms", better: "lower"},         // Reconfigure call to the drained barrier
	{name: "engine.reconfigure_apply_ms", unit: "ms", better: "lower"},           // time at the barrier: capture, tear down, rebuild
	{name: "engine.reconfigure_gap_ms", unit: "ms", better: "lower"},             // longest gap the consumer saw across the swap
	{name: "engine.inflight_preserved", unit: "count", better: "higher"},         // minibatches delivered between the Reconfigure call and the barrier

	{name: "trace.overhead_fraction", unit: "ratio", better: "lower"}, // 1 - traced/untraced minibatches_per_s
	{name: "trace.snapshot_ms", unit: "ms", better: "lower"},          // Collector.Snapshot, median of 20
	{name: "trace.snapshot_bytes", unit: "bytes", better: "lower"},    // the snapshot serialized

	{name: "ops.analyze_ms", unit: "ms", better: "lower"},                      // ops.Analyze on the planning trace, median of 20
	{name: "plan.solve_ms", unit: "ms", better: "lower"},                       // plan.Solve on that analysis, median of 20
	{name: "rewrite.apply_ms", unit: "ms", better: "lower"},                    // rewrite.ApplyPlan of that plan, median of 20
	{name: "plumber.traces_used", unit: "count", better: "lower"},              // full pipeline drains the optimizer consumed
	{name: "plumber.trace_drain_s", unit: "s", better: "lower"},                // time the optimizer spent in those drains
	{name: "plumber.untuned_minibatches_per_s", unit: "1/s", better: "higher"}, // the untuned graph's traced rate; minibatches_per_s / it is the paper's speed-up
	{name: "plan.cache_bytes_planned", unit: "bytes", better: "lower"},         // materialization the plan budgets for its cache
	{name: "plan.cores_planned", unit: "count", better: "lower"},               // core claim of the planned knobs

	{name: "doctor.step_ms", unit: "ms", better: "lower"}, // one Doctor.Step on the live collector, median

	{name: "consumer.next_gap_p50_us", unit: "us", better: "lower"},  // median time between consecutive minibatches
	{name: "consumer.next_gap_tail_us", unit: "us", better: "lower"}, // highest percentile with at least 10 samples beyond it
	{name: "consumer.max_gap_ms", unit: "ms", better: "lower"},       // longest time between consecutive minibatches

	{name: "bench.span_overhead_fraction", unit: "ratio", better: "lower"}, // span-recorded replay's job_s over the plain job's, minus 1
}

// samples collects every observation of every metric within one run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median of no samples is 0.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance rule for this benchmark's spread is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / median(xs))
}

// tailPercentile returns the highest percentile that still has at least ten
// samples beyond it, and its value; with fewer than 20 samples it falls back
// to the maximum.
func tailPercentile(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// report prints every metric in defs with its unit, sample count and
// interquartile range, and returns the median of each that was measured.
func (s samples) report(w io.Writer, defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		xs := s[d.name]
		m := median(xs)
		if len(xs) > 0 {
			out[d.name] = m
		}
		iqr := 0.0
		if len(xs) > 1 {
			q1, q3 := quartiles(xs)
			iqr = q3 - q1
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s n=%-3d iqr=%.3g\n", d.name, m, d.unit, len(xs), iqr)
	}
	return out
}
