package fuzz

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/scenario"
	"plumber/internal/stats"
	"plumber/internal/udf"
)

// TestEngineMatchesReference is the engine's differential oracle: every
// configuration must deliver what the simplest one does. For 24 generated
// workloads (Gen, built by scenario.Build: chains, zips and concats, filters,
// amplifying and shrinking maps, batches of 4 to 32) the reference drain
// hands off one element at a time over the channel edge with no buffer pool
// — so no storage views. Against it run the default engine with source,
// map and filter parallelism drawn from 1 to 4, and the same engine again
// with every edge one chunk deep, transient read faults absorbed by Retry,
// and a shared pool a competing tenant keeps drawing on. Each must deliver
// the reference's minibatch, example and byte counts and its multiset of
// payload bytes. A third run caches: the same engine over the graph
// with a Cache above its output (the Batch) and Repeat(3) on top must deliver three times
// the reference's counts and weight — one fill, two epochs served from the
// cache's own copies while the consumer recycles everything it is handed. A
// zip's branches are made as long as each other: of a longer branch, a zip
// keeps the records that arrive first, and which those are is a parallel
// stage's to decide. Outside the zips, a Filter whose Body keeps a record by
// its content alone, run on 2 to 4 workers below the Batch, must deliver
// what the reference does with it inline. (A cost-model Filter on workers
// drops by each worker's generator, so only its kept fraction repeats.)
//
// At parallelism 1 the order a drain delivers is deterministic, so an
// ordered leg also compares it: over the generated graph with a Shuffle, a
// Filter dropping three in ten, a Repeat(2) and a Take below the Batch, a
// Prefetch above it and two outer-parallel replicas, the defaults must
// deliver the reference's payloads in the reference's order. The reference
// hands every stage runs of one element, so neither a seeded shuffle's order
// nor the round robin's may depend on the length of the runs a stage pulls.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		spec, _ := Gen(seed)
		if spec.Shape == "zip" {
			spec.AuxFiles, spec.AuxRecordsPerFile = 0, 0 // derived from the main branch
		}
		w, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		base := engine.Options{FS: w.Source, UDFs: w.Registry, Seed: spec.Seed}
		ref := base
		ref.ChunkSize, ref.Handoff, ref.DisableBufferPool = 1, engine.HandoffChannel, true
		want := deliver(t, w.Graph, ref)

		g := w.Graph.Clone()
		rng := stats.NewRNG(seed)
		for i, n := range g.Nodes {
			if n.IsSource() || n.Kind == pipeline.KindMap || n.Kind == pipeline.KindFilter {
				g.Nodes[i].Parallelism = 1 + rng.Intn(4)
			}
		}
		check := func(config string, got, want delivered) {
			t.Helper()
			if got.order, want.order = 0, 0; got != want {
				t.Errorf("seed %d (%s shape %q), %s: delivered %+v, want %+v", seed, spec.Name, spec.Shape, config, got, want)
			}
		}
		check("defaults", deliver(t, g, base), want)

		cached, err := g.InsertAbove(g.Output, pipeline.Node{Name: "oracle_cache", Kind: pipeline.KindCache})
		if err == nil {
			cached, err = cached.InsertAbove(cached.Output, pipeline.Node{Name: "oracle_repeat", Kind: pipeline.KindRepeat, Count: 3})
		}
		if err != nil {
			t.Fatal(err)
		}
		thrice := delivered{3 * want.minibatches, 3 * want.examples, 3 * want.bytes, 3 * want.weight, 0}
		check("cached above the batch, three epochs", deliver(t, cached, base), thrice)

		if err := w.Registry.Register(udf.UDF{Name: "oracle_keep", Cost: udf.Cost{KeepFraction: 0.7}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Registry.Register(udf.UDF{Name: "oracle_pick", Body: pick}); err != nil {
			t.Fatal(err)
		}
		pickedAt := func(g *pipeline.Graph, par int) *pipeline.Graph {
			t.Helper()
			below := g.Nodes[g.NodeIndex(g.Output)].Input
			g, err := g.InsertAbove(below, pipeline.Node{Name: "oracle_pick", Kind: pipeline.KindFilter, UDF: "oracle_pick", Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		if par := 2 + rng.Intn(3); spec.Shape != "zip" { // which records a zip pairs is a parallel stage's to decide
			check(fmt.Sprintf("a Body filter on %d workers", par), deliver(t, pickedAt(g, par), base), deliver(t, pickedAt(w.Graph, 1), ref))
		}

		ordered := orderedLeg(t, w.Graph, want.examples)
		if got, want := deliver(t, ordered, base), deliver(t, ordered, ref); got != want {
			t.Errorf("seed %d (%s shape %q), ordered at parallelism 1: delivered %+v, want %+v", seed, spec.Name, spec.Shape, got, want)
		}

		stressed := base
		stressed.Retry = engine.Retry{MaxAttempts: 8, BaseBackoff: 20 * time.Microsecond, MaxBackoff: 200 * time.Microsecond}
		w.Source.SetFaults(&connector.FaultPlan{Seed: seed, Rules: []connector.FaultRule{{Name: "flaky", ErrorRate: 0.05}}})
		pool, stop := contendedPool(t)
		stressed.Pool, stressed.PoolTenant = pool, "tenant"
		check("faults and a contended pool", deliver(t, g, stressed), want)
		stop()
		w.Source.SetFaults(nil)
	}
}

// pick keeps a record by its content alone, seven payloads in ten, so a
// drain keeps the same records however its workers split them.
func pick(e data.Element) (data.Element, bool, error) {
	var h uint64
	for _, b := range e.Payload {
		h += byteWeight[b]
	}
	return e, h%10 < 7, nil
}

// delivered is what a drain handed its consumer, in terms no reordering of
// records changes: counts, and the multiset of payload bytes as a sum of
// per-byte weights — the same however records are regrouped into
// minibatches, moved by a record lost, repeated or altered. order is what
// does change: an FNV-64 hash of each minibatch's example count and payload,
// in the order they came.
type delivered struct {
	minibatches, examples, bytes int64
	weight, order                uint64
}

// orderedLeg is g, whose parallel stages all run at 1, with a Shuffle(16), a
// Filter keeping seven in ten (oracle_keep), a Repeat(2) and a Take of n
// inserted below its Batch, a Prefetch(4) above it, and two outer-parallel
// replicas.
func orderedLeg(t *testing.T, g *pipeline.Graph, n int64) *pipeline.Graph {
	t.Helper()
	below := g.Nodes[g.NodeIndex(g.Output)].Input
	var err error
	for _, ins := range []struct {
		above string
		node  pipeline.Node
	}{
		{below, pipeline.Node{Name: "oracle_shuffle", Kind: pipeline.KindShuffle, BufferSize: 16}},
		{"oracle_shuffle", pipeline.Node{Name: "oracle_filter", Kind: pipeline.KindFilter, UDF: "oracle_keep"}},
		{"oracle_filter", pipeline.Node{Name: "oracle_epochs", Kind: pipeline.KindRepeat, Count: 2}},
		{"oracle_epochs", pipeline.Node{Name: "oracle_take", Kind: pipeline.KindTake, Count: n}},
		{g.Output, pipeline.Node{Name: "oracle_prefetch", Kind: pipeline.KindPrefetch, BufferSize: 4}},
	} {
		if g, err = g.InsertAbove(ins.above, ins.node); err != nil {
			t.Fatal(err)
		}
	}
	if g, err = g.WithOuterParallelism(2); err != nil {
		t.Fatal(err)
	}
	return g
}

// byteWeight is splitmix64 of each byte value.
var byteWeight = func() (w [256]uint64) {
	for i := range w {
		z := uint64(i+1) * 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		w[i] = z ^ z>>31
	}
	return w
}()

// deliver drains g to EOF under opts and closes it.
func deliver(t *testing.T, g *pipeline.Graph, opts engine.Options) delivered {
	t.Helper()
	p, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var d delivered
	h := fnv.New64a()
	for {
		e, err := p.Next()
		if err == io.EOF {
			d.order = h.Sum64()
			return d
		}
		if err != nil {
			t.Fatal(err)
		}
		d.minibatches++
		d.examples += int64(e.Count)
		d.bytes += int64(len(e.Payload))
		for _, b := range e.Payload {
			d.weight += byteWeight[b]
		}
		fmt.Fprintf(h, "%d:", e.Count)
		h.Write(e.Payload)
		p.Recycle(e)
	}
}

// contendedPool returns a two-slot pool that admits "tenant" with one slot
// and a rival with the other, which takes it in short bursts until stop.
func contendedPool(t *testing.T) (pool *engine.SharedPool, stop func()) {
	t.Helper()
	pool = engine.NewSharedPool(2)
	for _, name := range []string{"tenant", "rival"} {
		if err := pool.Admit(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			release, ok := pool.Acquire("rival", done)
			if !ok {
				return
			}
			for end := time.Now().Add(50 * time.Microsecond); time.Now().Before(end); {
			}
			release()
			select {
			case <-done:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	return pool, func() {
		close(done)
		pool.Interrupt()
		wg.Wait()
	}
}
