package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"plumber"
	"plumber/internal/doctor"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// tally counts minibatches requested across every drain of a run and those
// that were not delivered, delivered after a caller-visible error, or failed
// verification.
type tally struct {
	attempted int64
	failed    int64
	errs      []string
}

// check records a drain that should have delivered want. An error fails the
// whole drain (the caller saw it); a mismatch fails the whole drain too,
// because a wrong multiset cannot be pinned on one minibatch. hashed says
// the drain hashed its payloads. splits is the number of hot-applied
// reconfigurations during the drain: each quiesce barrier makes the batch
// stage emit its partial batch, so the same examples arrive in up to that
// many more minibatches.
func (t *tally) check(what string, got, want checksum, hashed bool, splits int64, err error) {
	t.attempted += want.Minibatches
	extra := got.Minibatches - want.Minibatches
	switch {
	case err != nil:
		t.fail(want.Minibatches, fmt.Sprintf("%s: %v", what, err))
	case got.Examples != want.Examples, got.Bytes != want.Bytes, extra < 0, extra > splits, hashed && got.Hash != want.Hash:
		t.fail(want.Minibatches, fmt.Sprintf("%s: delivered %+v, reference %+v", what, got, want))
	}
}

// checkDelivery is check for a job drain.
func (t *tally) checkDelivery(what string, d delivery, want checksum, err error) {
	var splits int64
	if d.retune != nil {
		splits = int64(d.retune.replans)
	}
	t.check(what, d.sum, want, d.hashed, splits, err)
}

func (t *tally) fail(n int64, msg string) {
	t.failed += n
	t.errs = append(t.errs, msg)
}

// planned is the outcome of the optimize half of a job: the tuned program
// of every tenant and the model's prediction for the fill epoch.
type planned struct {
	optimize  time.Duration
	finals    []*pipeline.Graph
	predicted float64
	// result is set for single-pipeline workloads, arbiter and decision for
	// two-tenant.
	result   *plumber.Result
	arbiter  *plumber.Arbiter
	decision *plumber.Decision
}

// delivery is the outcome of the drain half of a job.
type delivery struct {
	sum     checksum
	hashed  bool // sum.Hash covers every payload
	wall    time.Duration
	fill    time.Duration
	fillSum int64 // minibatches in the fill window
	startup time.Duration
	gapsUS  []float64
	cpu     time.Duration
	// snapshot, set on traced drains, reads the drain's collector.
	snapshot func() *trace.Snapshot
	retune   *retuneTrace       // retune only
	report   *plumber.RunReport // two-tenant only
}

func (d delivery) rate() float64     { return float64(d.sum.Minibatches) / d.wall.Seconds() }
func (d delivery) fillRate() float64 { return float64(d.fillSum) / d.fill.Seconds() }

// fidelityRate is the measured rate prediction_fidelity holds against the
// model: the fill epoch's, or for two-tenant the sum of the tenants' own
// rates, which is the quantity the arbiter predicts.
func (d delivery) fidelityRate() float64 {
	if d.report != nil {
		return d.report.MeasuredAggregateMinibatchesPerSec
	}
	return d.fillRate()
}

// optimize runs the product's optimizer on the untuned program(s): the
// first half of the job, and all of optimize_s.
func (in *instance) optimize() (planned, error) {
	start := time.Now()
	if in.def.kind == kindTwoTenant {
		arb, dec, err := plumber.ArbitrateAll(in.hostTenants(), in.budget)
		if err != nil {
			return planned{}, err
		}
		pl := planned{optimize: time.Since(start), arbiter: arb, decision: dec,
			predicted: dec.PredictedAggregateMinibatchesPerSec}
		for _, s := range dec.Shares {
			pl.finals = append(pl.finals, s.Program)
		}
		return pl, nil
	}
	t := in.tenants[0]
	res, err := plumber.Optimize(t.untuned, in.budget, t.options(in.seed))
	if err != nil {
		return planned{}, err
	}
	return planned{optimize: time.Since(start), finals: []*pipeline.Graph{res.Final},
		predicted: res.PredictedMinibatchesPerSec, result: res}, nil
}

func (in *instance) hostTenants() []plumber.Tenant {
	out := make([]plumber.Tenant, len(in.tenants))
	for i, t := range in.tenants {
		out[i] = plumber.Tenant{
			Name:      t.cat.Name,
			Weight:    in.def.weights[i],
			Graph:     t.untuned,
			Source:    t.src,
			UDFs:      t.reg,
			Seed:      in.seed,
			WorkScale: 1,
			Spin:      t.spec.spin,
		}
	}
	return out
}

// warmUp runs one whole job untimed. The first job of a process pays for
// what no later one does — the heap grows to its working size and faults
// its pages in, and a throttled device's token bucket starts full — so it
// would be an outlier among the timed jobs, and on a short run it would
// move their median.
func (in *instance) warmUp(tl *tally) error {
	pl, err := in.optimize()
	if err != nil {
		return err
	}
	d, err := in.deliver(pl, false, false, nil)
	tl.checkDelivery("warm-up job", d, in.want(), err)
	return err
}

// want is the checksum a full job drain must deliver.
func (in *instance) want() checksum {
	var c checksum
	for _, t := range in.tenants {
		c = c.plus(t.ref.times(t.spec.epochs))
	}
	return c
}

// deliver runs the second half of the job: instantiate the tuned program(s)
// and drain every epoch with one consumer per pipeline. traced attaches the
// product's collector. gaps timestamps every Next (traced pass only). sp,
// when not nil, records the benchmark's spans.
func (in *instance) deliver(pl planned, traced, gaps bool, sp *spanLog) (delivery, error) {
	runtime.GC()
	cpu0 := processCPU()
	var d delivery
	var err error
	if in.def.kind == kindTwoTenant {
		d, err = in.deliverConcurrent(pl, traced, sp)
	} else {
		d, err = in.deliverSingle(pl, traced, gaps, sp)
	}
	d.cpu = processCPU() - cpu0
	return d, err
}

func (in *instance) deliverSingle(pl planned, traced, gaps bool, sp *spanLog) (delivery, error) {
	t := in.tenants[0]
	retune := in.def.kind == kindRetune
	g, err := withEpochs(pl.finals[0], t.spec.epochs)
	if err != nil {
		return delivery{}, err
	}
	var col *trace.Collector
	if traced || retune { // the doctor reads the collector
		if col, err = trace.NewCollector(g, trace.Machine{Name: "bench", Cores: in.budget.Cores, MemoryBytes: in.budget.MemoryBytes}); err != nil {
			return delivery{}, err
		}
		t.src.AddObserver(col)
		defer t.src.RemoveObserver(col)
	}
	opts := drainOpts{fillCount: t.fillCount(), gaps: gaps, spans: sp}
	var rt *retuneTrace
	stopDoctor := func() {}
	if retune {
		// Hashing 8 MiB per job costs the consumer a few ms it would
		// otherwise spend waiting for the throttled device.
		opts.gaps, opts.hash = true, true
		rt, stopDoctor = in.attachDoctor(t, col, &opts)
	}
	dr, err := drainGraph(g, measuredOptions(t, in.seed, col), opts)
	stopDoctor()
	d := delivery{sum: dr.sum, hashed: opts.hash, wall: dr.wall, fill: dr.fill, fillSum: t.fillCount(),
		startup: dr.startup, gapsUS: dr.gapsUS, retune: rt}
	if err != nil {
		return d, err
	}
	if col != nil {
		d.snapshot = func() *trace.Snapshot { return col.Snapshot(dr.wall, t.cat.NumFiles) }
	}
	if rt != nil {
		for _, gap := range dr.gapsUS[t.fillCount():] {
			rt.maxGapUS = math.Max(rt.maxGapUS, gap)
		}
	}
	return d, nil
}

// retuneTrace is what the retune drain observed of the control loop.
type retuneTrace struct {
	steps    []time.Duration // duration of every Doctor.Step
	detect   time.Duration   // bandwidth change -> start of the Step that re-planned
	replan   time.Duration   // duration of that Step (analyze, solve, apply, quiesce, rebuild)
	replans  int
	reconfig *engine.ReconfigReport
	maxGapUS float64 // longest consumer-observed gap after the bandwidth change
	rejected string
}

// retuneTickEvery is the delivered-minibatch period of Doctor.Step calls.
const retuneTickEvery = 16

// attachDoctor hooks the retune scenario into a drain: when epoch 1 ends (a
// fixed delivered count) the device's bandwidth drops to rampTo, which
// invalidates the plan; every retuneTickEvery minibatches the consumer
// signals a doctor goroutine to Step, so detection is driven by delivered
// counts, not by wall-clock sampling. Step must run off the consumer: a
// re-plan blocks in Reconfigure until the consumer reaches the quiesce
// barrier. The doctor stops after its first hot-apply, so every job pays
// for exactly one transition. stop, called after the drain, waits for the
// goroutine and restores the bandwidth; the trace is complete after it.
func (in *instance) attachDoctor(t *tenant, col *trace.Collector, opts *drainOpts) (rt *retuneTrace, stop func()) {
	rt = &retuneTrace{}
	nominal := t.fs.Bandwidth()
	// One pending tick is enough: a tick that arrives while a Step is still
	// running would only ask for a sample the running Step already covers.
	ticks := make(chan struct{}, 1)
	changed := make(chan time.Time, 1) // the one bandwidth change, handed to the doctor goroutine
	done := make(chan struct{})
	started := false
	opts.onPipeline = func(p *engine.Pipeline) {
		started = true
		doc := doctor.New(p, col, doctor.Config{
			Replan:     true,
			Budget:     in.budget,
			UDFs:       t.reg,
			TotalFiles: t.cat.NumFiles,
			Cooldown:   time.Nanosecond, // ticks are counted, not timed
		})
		go func() {
			defer close(done)
			var onset time.Time
			for range ticks {
				if rt.replans > 0 {
					continue // keep receiving so the consumer never blocks
				}
				select {
				case onset = <-changed:
				default:
				}
				start := time.Now()
				rep := doc.Step()
				dur := time.Since(start)
				rt.steps = append(rt.steps, dur)
				if rep.ReplanRejected != "" {
					rt.rejected = rep.ReplanRejected
				}
				if rep.Replanned {
					rt.replans, rt.replan, rt.reconfig = rt.replans+1, dur, rep.Reconfig
					if !onset.IsZero() {
						rt.detect = start.Sub(onset)
					}
				}
			}
		}()
	}
	opts.onDelivered = func(n int64) {
		if n == opts.fillCount {
			t.fs.SetBandwidth(in.def.rampTo)
			changed <- time.Now()
		}
		if n%retuneTickEvery == 0 {
			select {
			case ticks <- struct{}{}:
			default:
			}
		}
	}
	return rt, func() {
		close(ticks)
		if started {
			<-done
		}
		t.fs.SetBandwidth(nominal)
	}
}

// deliverConcurrent runs both arbitrated tenants at once on one shared
// worker pool. RunConcurrent drains inside the product, one consumer
// goroutine per tenant, so the benchmark sees counts and times, not
// payloads; payloads are checked by verifyGraph on each share's program.
func (in *instance) deliverConcurrent(pl planned, traced bool, sp *spanLog) (delivery, error) {
	end := sp.begin("run_concurrent")
	start := time.Now()
	rep, err := pl.arbiter.RunConcurrent(pl.decision, plumber.RunOptions{Traced: traced})
	wall := time.Since(start)
	end()
	if err != nil {
		return delivery{}, err
	}
	d := delivery{wall: wall, fill: wall, report: rep}
	for i, ms := range rep.Tenants {
		if ms.Status != plumber.StatusOK {
			return d, fmt.Errorf("tenant %s finished %s: %s", ms.Tenant, ms.Status, ms.Failure)
		}
		d.sum.Minibatches += ms.Minibatches
		d.sum.Examples += ms.Examples
		// RunConcurrent reports no byte count; a tenant that delivered every
		// minibatch and example is credited with the reference's bytes.
		if ref := in.tenants[i].ref; ms.Minibatches == ref.Minibatches && ms.Examples == ref.Examples {
			d.sum.Bytes += ref.Bytes
		}
	}
	d.fillSum = d.sum.Minibatches
	return d, nil
}
