package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// checksum is what one drain delivered: minibatch, example and payload-byte
// counts plus an order-independent hash of the payload bytes.
type checksum struct {
	Minibatches int64
	Examples    int64
	Bytes       int64
	Hash        uint64
}

// times returns the checksum of k identical epochs.
func (c checksum) times(k int) checksum {
	n := int64(k)
	return checksum{c.Minibatches * n, c.Examples * n, c.Bytes * n, c.Hash * uint64(k)}
}

// plus returns the checksum of both drains together.
func (c checksum) plus(o checksum) checksum {
	return checksum{c.Minibatches + o.Minibatches, c.Examples + o.Examples, c.Bytes + o.Bytes, c.Hash + o.Hash}
}

// sameCounts compares everything but the hash, which timed drains skip.
func (c checksum) sameCounts(o checksum) bool {
	return c.Minibatches == o.Minibatches && c.Examples == o.Examples && c.Bytes == o.Bytes
}

// byteWeights maps each byte value to a fixed 64-bit weight (splitmix64 of
// the value). The payload hash is the sum of the weights of every delivered
// byte: a parallel stage reorders records and so regroups them into
// different minibatches, and a sum over bytes is the same under any such
// regrouping, while a dropped, duplicated, truncated or altered record
// changes it.
var byteWeights = func() (w [256]uint64) {
	for i := range w {
		z := uint64(i)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		w[i] = z ^ z>>31
	}
	return w
}()

func hashBytes(p []byte) uint64 {
	var h uint64
	for _, b := range p {
		h += byteWeights[b]
	}
	return h
}

// drainOpts selects what a drain records beyond counts and wall time.
type drainOpts struct {
	// fillCount is the number of minibatches in epoch 1; the drain stamps
	// the moment that many were delivered.
	fillCount int64
	// hash hashes every payload (untimed verification drains only: hashing
	// every byte would dominate a timed drain).
	hash bool
	// corrupt flips one byte of the first payload before it is hashed — the
	// checker's self-test.
	corrupt bool
	// gaps timestamps every Next.
	gaps bool
	// onDelivered, when set, runs on the consumer after each minibatch with
	// the count delivered so far.
	onDelivered func(n int64)
	// onPipeline, when set, receives the pipeline before the first Next.
	onPipeline func(p *engine.Pipeline)
	// beforeClose, when set, runs after the last minibatch with the
	// pipeline (and whatever it cached) still open.
	beforeClose func()
	// spans, when set, records engine.new and one span per epoch (every
	// fillCount minibatches).
	spans *spanLog
}

// drained is the outcome of one drain. Times are measured from just before
// engine.New, so worker start-up is inside them.
type drained struct {
	sum     checksum
	wall    time.Duration // to the end of the stream
	fill    time.Duration // to the last minibatch of epoch 1
	startup time.Duration // to the first minibatch
	gapsUS  []float64     // time between consecutive deliveries, µs
}

// drainGraph instantiates g under eo and pulls it dry on the calling
// goroutine: one consumer, zero step time, a closed loop.
func drainGraph(g *pipeline.Graph, eo engine.Options, o drainOpts) (drained, error) {
	var d drained
	start := time.Now()
	endNew := o.spans.begin("engine.new")
	p, err := engine.New(g, eo)
	endNew()
	if err != nil {
		return d, err
	}
	defer p.Close()
	if o.onPipeline != nil {
		o.onPipeline(p)
	}
	last := start
	epoch, inEpoch := 1, int64(0)
	endEpoch := o.spans.begin("epoch[1]")
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			endEpoch()
			return d, err
		}
		d.sum.Minibatches++
		d.sum.Examples += int64(e.Count)
		d.sum.Bytes += e.Size
		if o.hash {
			if o.corrupt && d.sum.Minibatches == 1 && len(e.Payload) > 0 {
				e.Payload[0] ^= 0x01
			}
			d.sum.Hash += hashBytes(e.Payload)
		}
		p.Recycle(e)
		if o.gaps || d.sum.Minibatches == 1 || d.sum.Minibatches == o.fillCount {
			now := time.Now()
			if o.gaps {
				d.gapsUS = append(d.gapsUS, float64(now.Sub(last).Nanoseconds())/1e3)
				last = now
			}
			if d.sum.Minibatches == 1 {
				d.startup = now.Sub(start)
			}
			if d.sum.Minibatches == o.fillCount {
				d.fill = now.Sub(start)
			}
		}
		if o.onDelivered != nil {
			o.onDelivered(d.sum.Minibatches)
		}
		if inEpoch++; o.spans != nil && inEpoch == o.fillCount {
			endEpoch()
			epoch, inEpoch = epoch+1, 0
			endEpoch = o.spans.begin(fmt.Sprintf("epoch[%d]", epoch))
		}
	}
	d.wall = time.Since(start)
	if o.beforeClose != nil {
		o.beforeClose()
	}
	if endEpoch(); o.spans != nil && inEpoch == 0 {
		o.spans.dropLast() // the span opened after the final epoch saw only EOF
	}
	if err := p.Close(); err != nil {
		return d, err
	}
	return d, nil
}

// referenceOptions is the trivially-correct engine configuration the
// delivered data is checked against: per-element handoff over Go channels,
// no buffer pool (so no arena views either), no modeled CPU.
func referenceOptions(t *tenant, seed uint64) engine.Options {
	return engine.Options{
		FS:                t.twin,
		UDFs:              t.reg,
		Seed:              seed,
		Handoff:           engine.HandoffChannel,
		ChunkSize:         1,
		DisableBufferPool: true,
	}
}

// referenceChecksum drains one epoch of the tenant's untuned graph (every
// parallelism 1) under the reference configuration. It doubles as the
// warm-up drain that touches every shard.
func referenceChecksum(t *tenant, seed uint64) (checksum, error) {
	d, err := drainGraph(t.untuned, referenceOptions(t, seed), drainOpts{hash: true})
	return d.sum, err
}

// measuredOptions is the engine configuration the timed drains run under:
// every engine default (ring handoff, 64-element chunks, pooled buffers and
// arena views), the tenant's modeled CPU, and a collector when traced.
func measuredOptions(t *tenant, seed uint64, col *trace.Collector) engine.Options {
	return engine.Options{
		FS:          t.src,
		UDFs:        t.reg,
		Seed:        seed,
		WorkScale:   1,
		Spin:        t.spec.spin,
		Collector:   col,
		SampleEvery: tracedSampleEvery,
	}
}

// tracedSampleEvery is the wall-timer sampling period of traced drains —
// what `plumber watch` users get.
const tracedSampleEvery = 16

// withEpochs wraps the graph's output in a Repeat(epochs), so a cache the
// planner inserted below serves epochs 2..E. One epoch needs no wrapper.
func withEpochs(g *pipeline.Graph, epochs int) (*pipeline.Graph, error) {
	if epochs == 1 {
		return g, nil
	}
	return g.InsertAbove(g.Output, pipeline.Node{Name: "bench_epochs", Kind: pipeline.KindRepeat, Count: int64(epochs)})
}

// verifyEpochs is how many epochs the untimed drains cover: a fill and, if a
// cache was planned, a serve.
const verifyEpochs = 2

// verifyGraph drains two epochs of g (a fill and, if a cache was planned, a
// serve) under the measured configuration, untimed, hashing every payload,
// and returns what was delivered next to what the reference says it must be,
// and the live heap at the end of the drain, the pipeline still open.
func verifyGraph(t *tenant, seed uint64, g *pipeline.Graph, traced, corrupt bool) (got, want checksum, liveMiB float64, err error) {
	want = t.ref.times(verifyEpochs)
	rg, err := withEpochs(g, verifyEpochs)
	if err != nil {
		return got, want, 0, err
	}
	var col *trace.Collector
	if traced {
		if col, err = trace.NewCollector(rg, trace.Machine{Name: "bench-verify"}); err != nil {
			return got, want, 0, err
		}
		t.src.AddObserver(col)
		defer t.src.RemoveObserver(col)
	}
	eo := measuredOptions(t, seed, col)
	eo.FS, eo.Spin = t.twin, false // untimed: no reason to wait for the throttle or burn the modeled CPU
	d, err := drainGraph(rg, eo, drainOpts{hash: true, corrupt: corrupt, beforeClose: func() { liveMiB = liveHeapMiB() }})
	return d.sum, want, liveMiB, err
}

// allocPass counts the heap objects one more untimed drain of g allocates,
// on one P. With a single P the goroutines interleave the same way every
// time, so the count repeats almost exactly; on two, how often a worker
// parks on a stage edge (one allocation each) depends on timing, and on the
// workloads that mostly wait that noise is larger than the count.
func allocPass(t *tenant, seed uint64, g *pipeline.Graph) (objects uint64, got checksum, err error) {
	rg, err := withEpochs(g, verifyEpochs)
	if err != nil {
		return 0, got, err
	}
	eo := measuredOptions(t, seed, nil)
	eo.FS, eo.Spin = t.twin, false
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	before := heapAllocs()
	d, err := drainGraph(rg, eo, drainOpts{})
	return heapAllocs() - before, d.sum, err
}
