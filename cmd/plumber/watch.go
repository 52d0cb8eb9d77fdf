package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"plumber/internal/connector"
	"plumber/internal/doctor"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/scenario"
	"plumber/internal/trace"
)

// runWatch runs the demo chain on a throttled simulated device for a fixed
// wall-clock window with the doctor attached: per-interval stage health and
// diagnoses stream to stdout, and when the measured root rate drifts beyond
// the threshold from the calibrated baseline the doctor re-solves the
// allocation and hot-applies it through the quiesce/patch/resume lifecycle —
// the consumer keeps draining across the swap. -ramp-after/-ramp-mbps change
// the device's delivered bandwidth mid-run, the canonical drift injection;
// -min-replans turns the run into a CI assertion.
func runWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	spec := specFlags(fs)
	epochs := fs.Int("epochs", 4096, "demo chain: Repeat count (keeps the pipeline live for the whole window)")
	workScale := fs.Float64("workscale", 1, "scale factor on modeled CPU time (0 disables CPU modeling)")
	spin := fs.Bool("spin", false, "burn modeled CPU for real so wallclock reflects the cost model")
	duration := fs.Duration("duration", 6*time.Second, "how long to watch before exiting")
	interval := fs.Duration("interval", 500*time.Millisecond, "doctor sampling period")
	drift := fs.Float64("drift", 0.3, "relative measured-vs-predicted gap that triggers a replan")
	cooldown := fs.Duration("cooldown", 0, "minimum time between replans (0 = 2x interval)")
	replan := fs.Bool("replan", true, "hot-apply drift-triggered replans (false: diagnose only)")
	deviceMBps := fs.Float64("device-mbps", 40, "simulated device aggregate read bandwidth in MB/s")
	rampAfter := fs.Duration("ramp-after", 0, "change the delivered bandwidth this long into the run (0 = no ramp)")
	rampMBps := fs.Float64("ramp-mbps", 0, "delivered bandwidth after the ramp in MB/s")
	minReplans := fs.Int("min-replans", 0, "exit non-zero unless at least N drift-triggered replans happened")
	out := fs.String("out", "", "optional output path for the watch report JSON")
	budget := budgetFlags(fs)
	fs.Parse(args)

	if *rampAfter > 0 && *rampMBps <= 0 {
		return fmt.Errorf("-ramp-after needs -ramp-mbps > 0 (the bandwidth to ramp to)")
	}

	wl, err := scenario.Build(spec())
	if err != nil {
		return err
	}
	// The Repeat goes above the batch's input (the decode map), so the
	// pipeline stays live for the whole window.
	batch, _ := wl.Graph.Node(wl.Graph.Output)
	g, err := wl.Graph.InsertAbove(batch.Input, pipeline.Node{Name: "repeat_1", Kind: pipeline.KindRepeat, Count: int64(*epochs)})
	if err != nil {
		return err
	}

	// A throttled simulated device: readers sleep in real time against the
	// token bucket, so SetBandwidth mid-run genuinely changes the delivered
	// rate the doctor measures.
	src := connector.NewSimFS(connector.Device{Name: "watch", TotalBandwidth: *deviceMBps * 1e6, PerStreamBandwidth: *deviceMBps * 1e6 / 4}, true)
	src.AddCatalog(wl.Catalog, wl.Spec.Seed)

	col, err := trace.NewCollector(g, trace.Machine{Name: "watch", Cores: runtime.NumCPU()})
	if err != nil {
		return err
	}
	src.AddObserver(col)
	defer src.RemoveObserver(col)
	p, err := engine.New(g, engine.Options{
		FS: src, UDFs: wl.Registry, Collector: col,
		WorkScale: *workScale, Spin: *spin, Seed: wl.Spec.Seed,
	})
	if err != nil {
		return err
	}

	// The consumer pumps until the window closes or the stream ends — a
	// quiesce barrier never surfaces as io.EOF, since a pending patch
	// resolves inside Next. EOF before the window closes means the Repeat
	// budget ran out early; the doctor keeps sampling regardless. A stream
	// that ended is canceled, so a Reconfigure the doctor starts later fails
	// at once instead of waiting for a barrier no consumer will reach.
	var delivered atomic.Int64
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		defer p.Cancel()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e, err := p.Next()
			if err != nil {
				return
			}
			delivered.Add(1)
			p.Recycle(e)
		}
	}()

	if *rampAfter > 0 {
		toBytes := *rampMBps * 1e6
		defer time.AfterFunc(*rampAfter, func() {
			src.SetBandwidth(toBytes)
			fmt.Printf("[watch] ramped delivered bandwidth %.0f -> %.0f MB/s\n", *deviceMBps, *rampMBps)
		}).Stop()
	}

	d := doctor.New(p, col, doctor.Config{
		Interval:      *interval,
		DriftFraction: *drift,
		Cooldown:      *cooldown,
		Replan:        *replan,
		Budget:        budget(),
		UDFs:          wl.Registry,
		TotalFiles:    wl.Catalog.NumFiles,
		Out:           os.Stdout,
	})
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	d.Run(ctx) // returns when the window closes
	wall := time.Since(start)

	close(stop)
	<-consumerDone
	if err := p.Close(); err != nil {
		return err
	}

	replans := d.Replans()
	fmt.Printf("[watch] %v window: %d minibatches delivered, %d drift-triggered replans\n",
		wall.Round(time.Millisecond), delivered.Load(), replans)

	if *out != "" {
		doc := map[string]any{
			"duration_seconds":      wall.Seconds(),
			"device_mbps":           *deviceMBps,
			"delivered_minibatches": delivered.Load(),
			"replans":               replans,
			"reports":               d.Reports(),
		}
		if *rampAfter > 0 {
			doc["ramp_after_seconds"] = rampAfter.Seconds()
			doc["ramp_mbps"] = *rampMBps
		}
		j, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(*out, j); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if replans < *minReplans {
		return fmt.Errorf("%d replans in %v, want at least %d", replans, wall.Round(time.Millisecond), *minReplans)
	}
	return nil
}
