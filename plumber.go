// Package plumber is the drop-in façade over the reproduction's layers: it
// wires the engine, tracer, analyzer, and rewriter into the paper's
// five-lines-of-code interface. Trace runs an instrumented pipeline and
// returns a Snapshot; Analyze turns a Snapshot into resource-accounted
// rates; Plan decides from a Snapshot alone — analyze, solve the joint
// allocation, rewrite, predict — returning the rewritten program together
// with the audit trail of every knob change; Optimize is Plan over one
// settled trace.
//
//	snap, _ := plumber.Trace(graph, opts)
//	analysis, _ := plumber.Analyze(snap, opts.UDFs)
//	planned, _ := plumber.Plan(snap, opts.UDFs, budget)
//	result, _ := plumber.Optimize(graph, budget, opts)
//	run(result.Final)
package plumber

import (
	"errors"
	"fmt"
	"runtime"

	"plumber/internal/connector"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// Connector is the storage interface every engine read goes through; see
// internal/connector for the simfs, local-FS, and object-store backends.
type Connector = connector.Connector

// Options configures the façade's engine runs.
type Options struct {
	// Source is the storage connector serving the source shards. Required.
	Source Connector
	// UDFs resolves Map/Filter function names and the randomness closure
	// that gates caching. Optional when the graph uses no UDF nodes.
	UDFs *udf.Registry
	// Machine labels emitted snapshots; zero values are filled with
	// sensible defaults ("plumber", runtime.NumCPU cores).
	Machine trace.Machine
	// Seed drives shuffles and randomized UDFs.
	Seed uint64
	// WorkScale converts modeled UDF CPU-seconds into accounted (and, with
	// Spin, burned) CPU time. Zero disables CPU modeling.
	WorkScale float64
	// Spin makes workers busy-wait for modeled CPU time so wallclock
	// throughput reflects the cost model.
	Spin bool
	// MaxMinibatches bounds each trace drain; 0 drains to EOF (one pass
	// over a finite pipeline).
	MaxMinibatches int64
	// Caches, when non-nil, carries warm cache contents across separate
	// Trace and Optimize calls; stale entries are invalidated by the engine
	// when a rewrite touches the chain below them. Nil gives every run a
	// fresh store.
	Caches *engine.CacheStore
}

func (o Options) withDefaults() Options {
	if o.Machine.Name == "" {
		o.Machine.Name = "plumber"
	}
	if o.Machine.Cores == 0 {
		o.Machine.Cores = runtime.NumCPU()
	}
	return o
}

// Trace instantiates the graph on the engine with tracing attached, drains
// it (to EOF, or MaxMinibatches root elements if set), and returns the
// joined snapshot of the serialized program and every Dataset's counters.
// A drain cut short by MaxMinibatches analyzes to the rates of the whole
// pass: the analyzer charges each Dataset for what the root asked of it,
// not for what it had produced ahead (internal/ops).
func Trace(g *pipeline.Graph, opts Options) (*trace.Snapshot, error) {
	return traceUntil(g, opts, nil)
}

// traceUntil is Trace with a stop rule (engine.TraceRun): nil drains the
// whole pass, engine.Settled stops once the rate of the pipeline's progress
// stream — examples into its batch — has settled.
func traceUntil(g *pipeline.Graph, opts Options, stop engine.StopRule) (*trace.Snapshot, error) {
	if opts.Source == nil {
		return nil, errors.New("plumber: Options.Source is required")
	}
	opts = opts.withDefaults()
	snap, err := engine.TraceRun(g, engine.Options{
		FS:        opts.Source,
		UDFs:      opts.UDFs,
		WorkScale: opts.WorkScale,
		Spin:      opts.Spin,
		Seed:      opts.Seed,
		Caches:    opts.Caches,
	}, opts.Machine, opts.MaxMinibatches, stop)
	if err != nil {
		return nil, fmt.Errorf("plumber: %w", err)
	}
	return snap, nil
}

// Analyze operationalizes a snapshot: visit ratios, per-core rates, scaled
// capacities, I/O and materialization costs, and cache legality. reg may be
// nil, in which case all UDFs are treated as deterministic.
func Analyze(snap *trace.Snapshot, reg *udf.Registry) (*ops.Analysis, error) {
	return ops.Analyze(snap, reg)
}
