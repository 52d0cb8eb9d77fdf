// Command plumberbench measures the repo's checked-in perf trajectories.
//
// Usage:
//
//	plumberbench [-engine] [-quick] [-handoff ring|channel] [-json BENCH_engine.json] # engine hot path
//	plumberbench -tuner [-quick] [-json BENCH_tuner.json]         # closed-loop tuner
//	plumberbench -planner [-quick] [-json BENCH_planner.json]     # planner vs greedy
//	plumberbench -scenarios [-quick] [-json BENCH_scenarios.json] # scenario matrix + arbiter
//	plumberbench -chaos [-quick] [-json BENCH_chaos.json]         # fault injection + isolation
//	plumberbench -connectors [-quick] [-json BENCH_connectors.json] # storage backends head-to-head
//	plumberbench -retune [-quick] [-backend simfs|localfs|objectstore] [-json BENCH_retune.json] # hot-apply vs restart
//	plumberbench -fuzz [-quick] [-json BENCH_fuzzer.json]         # planner property fuzzer
//
// -json sets the output path; each suite has a default filename (-out is a
// deprecated alias). The default (or -engine) suite runs the engine hot-path
// configurations — per-element baseline, chunked+pooled channel edge and the
// sharded-ring edge (each untraced and traced), and a parallelism sweep —
// and writes BENCH_engine.json with the acceptance ratios:
//
//   - chunked_pooled_speedup_over_baseline: >= 2.0 is the target
//   - traced_fraction_of_untraced: >= 0.85 is the target
//   - ring_handoff_speedup_over_chunked_pooled: >= 1.0 is the target
//
// -handoff ring|channel forces every engine spec onto one stage-edge
// implementation (the CI smoke path that proves both edges drain the suite).
//
// With -tuner it instead runs plumber.Optimize end to end on the synthetic
// tuner catalog and writes BENCH_tuner.json — per-step capacity, the
// applied-rewrite audit trail alongside the final graph, and measured
// throughput of sequential vs tuned vs hand-tuned:
//
//   - tuned_fraction_of_hand_tuned: >= 0.8 is the target
//
// With -planner it runs the one-shot predictive planner head-to-head
// against the greedy re-trace loop on the same catalog and budget and
// writes BENCH_planner.json — traces used, wall-clock to capacity, final
// measured rate, and the what-if prediction error:
//
//   - planner_fraction_of_greedy_capacity: >= 0.95 is the target,
//     with planner_traces_used == 1
//
// With -scenarios it runs the planner-vs-greedy head-to-head across the
// whole canonical scenario suite (vision, nlp, tiny-files, skewed,
// random-augment, cold-storage) plus one multi-tenant arbitration of an
// asymmetric mix against the static even-split baseline — including the
// concurrent contention experiment, where every tenant runs simultaneously
// on one shared engine worker pool and the measured per-tenant rates land
// next to the predictions — and writes BENCH_scenarios.json:
//
//   - <scenario>_planner_fraction_of_greedy: >= 0.9 per scenario
//   - arbitrated_fraction_of_even_split_predicted: >= 1.0
//   - concurrent_measured_fraction_of_predicted: sanity-tracks how the
//     calibrated predictions hold up under real contention
//
// With -chaos it runs the graceful-degradation suite and writes
// BENCH_chaos.json: a two-tenant arbitrated mix runs concurrently while
// seeded fault plans chew on the read path — a no-fault baseline, a 2%
// transient error rate absorbed by the retry policy, tail-latency spikes, a
// bandwidth-degradation ramp, and a permanently failing tenant that is
// isolated (evicted, share re-water-filled) without sinking its neighbor:
//
//   - transient_errors_reaching_caller: == 0 is the target (with
//     transient_retries > 0 proving faults were actually injected)
//   - failed_tenant_reported_failed: == 1 is the target
//   - survivors_fraction_of_without_failed_run: >= 0.9 is the target
//
// With -connectors it measures the same probe workload through every
// storage connector (simfs adapter, real local files, modeled object
// store), proves the retry policy absorbs transient faults on each, runs
// the mixed-backend two-tenant arbitration, and writes
// BENCH_connectors.json:
//
//   - backends_measured: == 3 is the target
//   - transient_errors_reaching_caller: == 0 is the target (with
//     transient_retries > 0 on the injected legs)
//   - localfs_fraction_of_simfs / objectstore_fraction_of_simfs:
//     sanity-track how the real and modeled backends compare
//
// With -retune it answers the same induced plan drift two ways on one
// backend (-backend, default simfs) and writes BENCH_retune.json: the hot
// leg lets the live doctor re-solve the plan and apply it through the
// engine's quiesce/patch/resume lifecycle while the consumer keeps
// draining; the restart leg stops the consumer, tears the pipeline down,
// re-plans from the accumulated trace, and rebuilds. Each leg reports its
// steady rates, convergence time, throughput-dip depth/duration, and
// in-flight elements preserved:
//
//   - hot_steady_fraction_of_restart_steady: >= 0.9 is the target
//   - hot_elements_in_flight_preserved: > 0 is the target (the barrier
//     drained the in-flight chunks to the consumer instead of dropping them)
//
// With -fuzz it runs the planner property fuzzer: a seeded matrix of
// random workloads (1000, or 100 with -quick) spanning DAG shapes,
// heavy-tailed sizes, declared petabyte catalogs, throttled devices, and
// random budgets, each run through the real trace -> analyze -> solve ->
// rewrite path and checked against the planner's invariants, plus the
// joint-vs-greedy head-to-head on the canonical scenario suite. Writes
// BENCH_fuzzer.json:
//
//   - budget_overcommit_pass_rate == 1.0 and apply_plan_pass_rate == 1.0
//     are the targets
//   - planner_vs_greedy_pass_rate == 1.0 at the documented epsilon
//   - <scenario>_joint_fraction_of_greedy >= 1.0 per canonical scenario
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"plumber/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced CI smoke suite")
	engineSuite := flag.Bool("engine", false, "run the engine hot-path suite (the default when no suite flag is given)")
	handoff := flag.String("handoff", "", "engine suite only: force every spec's stage edge to 'ring' or 'channel'")
	tuner := flag.Bool("tuner", false, "run the closed-loop tuner benchmark instead of the engine suite")
	planner := flag.Bool("planner", false, "run the planner-vs-greedy comparison instead of the engine suite")
	scenarios := flag.Bool("scenarios", false, "run the scenario matrix + multi-tenant arbitration instead of the engine suite")
	chaos := flag.Bool("chaos", false, "run the fault-injection / graceful-degradation suite instead of the engine suite")
	connectors := flag.Bool("connectors", false, "run the storage-connector comparison instead of the engine suite")
	retune := flag.Bool("retune", false, "run the hot-apply vs restart-and-replan comparison instead of the engine suite")
	fuzzer := flag.Bool("fuzz", false, "run the planner property fuzzer instead of the engine suite")
	backend := flag.String("backend", "", "retune suite only: storage connector to run on ('simfs', 'localfs', or 'objectstore'; default simfs)")
	jsonOut := flag.String("json", "", "output path (default BENCH_<suite>.json)")
	out := flag.String("out", "", "deprecated alias for -json")
	flag.Parse()

	path := *jsonOut
	if path == "" {
		path = *out
	}
	picked := 0
	for _, b := range []bool{*engineSuite, *tuner, *planner, *scenarios, *chaos, *connectors, *retune, *fuzzer} {
		if b {
			picked++
		}
	}
	if *handoff != "" && *handoff != "ring" && *handoff != "channel" {
		fatal(fmt.Errorf("-handoff must be 'ring' or 'channel', got %q", *handoff))
	}
	if *handoff != "" && (*tuner || *planner || *scenarios || *chaos || *connectors || *retune || *fuzzer) {
		fatal(fmt.Errorf("-handoff only applies to the engine suite"))
	}
	if *backend != "" && *backend != "simfs" && *backend != "localfs" && *backend != "objectstore" {
		fatal(fmt.Errorf("-backend must be 'simfs', 'localfs', or 'objectstore', got %q", *backend))
	}
	if *backend != "" && !*retune {
		fatal(fmt.Errorf("-backend only applies to the retune suite"))
	}
	switch {
	case picked > 1:
		fatal(fmt.Errorf("-engine, -tuner, -planner, -scenarios, -chaos, -connectors, -retune, and -fuzz are mutually exclusive"))
	case *fuzzer:
		runFuzzer(*quick, path)
	case *tuner:
		runTuner(*quick, path)
	case *planner:
		runPlanner(*quick, path)
	case *scenarios:
		runScenarios(*quick, path)
	case *chaos:
		runChaos(*quick, path)
	case *connectors:
		runConnectors(*quick, path)
	case *retune:
		runRetune(*quick, *backend, path)
	default:
		runEngine(*quick, *handoff, path)
	}
}

func runFuzzer(quick bool, out string) {
	if out == "" {
		out = "BENCH_fuzzer.json"
	}
	rep, err := bench.RunFuzzer(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	fmt.Printf("fuzzed %d workloads (master seed %#x, epsilon %.2f): shapes %v, %d declared catalogs, %d throttled devices\n",
		rep.Workloads, rep.MasterSeed, rep.Epsilon, rep.Shapes, rep.DeclaredCatalogs, rep.ThrottledDevices)
	fmt.Printf("plans: %d caches, %d replicated; planner/greedy worst %.3f mean %.3f\n",
		rep.CachesPlanned, rep.ReplicasPlanned, rep.WorstPlannerFractionOfGreedy, rep.MeanPlannerFractionOfGreedy)
	for inv, rate := range rep.InvariantPassRates {
		fmt.Printf("invariant %-24s pass rate %.4f\n", inv, rate)
	}
	for _, c := range rep.Counterexamples {
		fmt.Printf("counterexample: seed %d violates %v\n", c.Seed, c.Violations)
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runRetune(quick bool, backend, out string) {
	if out == "" {
		out = "BENCH_retune.json"
	}
	rep, err := bench.RunRetune(quick, backend)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	for _, leg := range []bench.RetuneLeg{rep.Hot, rep.Restart} {
		fmt.Printf("%-10s steady %8.1f -> %8.1f mb/s  converged %6.1fms  dip %3.0f%% for %6.1fms  in-flight preserved %d\n",
			leg.Strategy, leg.SteadyPreRate, leg.SteadyPostRate, 1e3*leg.ConvergenceSeconds,
			100*leg.ThroughputDipDepth, 1e3*leg.ThroughputDipSeconds, leg.ElementsInFlightPreserved)
		if len(leg.Trail) > 0 {
			fmt.Printf("  plan: %v\n", leg.Trail)
		}
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runChaos(quick bool, out string) {
	if out == "" {
		out = "BENCH_chaos.json"
	}
	rep, err := bench.RunChaos(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	for _, r := range rep.Runs {
		fmt.Printf("%-24s %6.2fs wall  aggregate %8.1f mb/s  survivors %8.1f mb/s\n",
			r.Name, r.WallSeconds, r.Aggregate, r.SurvivorAggregate)
		for _, t := range r.Tenants {
			line := fmt.Sprintf("  %-12s %-8s %6d mb  %8.1f mb/s", t.Tenant, t.Status, t.Minibatches, t.MeasuredMinibatchesPerSec)
			if t.Retries > 0 || t.Errors > 0 {
				line += fmt.Sprintf("  retries %d errors %d gave-up %d", t.Retries, t.Errors, t.GaveUp)
			}
			if t.Faults.Errors > 0 || t.Faults.Spikes > 0 || t.Faults.Stalls > 0 || t.Faults.DelayNanos > 0 {
				line += fmt.Sprintf("  injected: %d errors, %d spikes, %d stalls, %.1fms delay",
					t.Faults.Errors, t.Faults.Spikes, t.Faults.Stalls, float64(t.Faults.DelayNanos)/1e6)
			}
			fmt.Println(line)
		}
		for _, ev := range r.Reclaims {
			fmt.Printf("  reclaim: %s (%s) at %.2fs freed %d cores -> %v\n",
				ev.Tenant, ev.Reason, ev.AtSeconds, ev.FreedCores, ev.Regrants)
		}
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runConnectors(quick bool, out string) {
	if out == "" {
		out = "BENCH_connectors.json"
	}
	rep, err := bench.RunConnectors(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	fmt.Printf("%-12s %16s %16s %8s %7s %8s\n", "backend", "clean ex/s", "faulted ex/s", "retries", "errors", "injected")
	for _, b := range rep.Backends {
		fmt.Printf("%-12s %16.0f %16.0f %8d %7d %8d\n",
			b.Backend, b.MeasuredExamplesPerSec, b.FaultMeasuredExamplesPerSec,
			b.Retries, b.Errors, b.Faults.Errors)
	}
	fmt.Printf("mixed-backend run (%.1fs wall): aggregate %.1f minibatches/s\n",
		rep.Mixed.WallSeconds, rep.Mixed.Aggregate)
	for _, t := range rep.Mixed.Tenants {
		fmt.Printf("  %-14s %-12s %-8s %d cores  disk %6.1f MB/s  %6d mb  %8.1f mb/s\n",
			t.Tenant, t.Backend, t.Status, t.ShareCores, t.ShareDiskBandwidth/1e6,
			t.Minibatches, t.MeasuredMinibatchesPerSec)
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runScenarios(quick bool, out string) {
	if out == "" {
		out = "BENCH_scenarios.json"
	}
	rep, err := bench.RunScenarios(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	fmt.Printf("%-16s %8s %8s %14s %14s\n", "scenario", "pl trc", "gr trc", "planner ex/s", "greedy ex/s")
	for _, s := range rep.Scenarios {
		fmt.Printf("%-16s %8d %8d %14.0f %14.0f\n",
			s.Spec.Name, s.Planner.TracesUsed, s.Greedy.TracesUsed,
			s.Planner.MeasuredExamplesPerSec, s.Greedy.MeasuredExamplesPerSec)
	}
	mt := rep.MultiTenant
	fmt.Printf("multi-tenant (%d tenants, %d cores): predicted %.1f vs even-split %.1f minibatches/s\n",
		len(mt.Tenants), mt.Budget.Cores, mt.PredictedAggregate, mt.EvenSplitPredictedAggregate)
	for _, tr := range mt.Tenants {
		fmt.Printf("  %-12s %d cores  predicted %8.1f mb/s  measured %8.0f ex/s (even split: %8.1f, %8.0f)\n",
			tr.Tenant, tr.ShareCores, tr.PredictedMinibatchesPerSec, tr.MeasuredExamplesPerSec,
			tr.EvenSplitPredictedMinibatchesPerSec, tr.EvenSplitMeasuredExamplesPerSec)
	}
	fmt.Printf("concurrent contention run (%.1fs wall): measured aggregate %.1f minibatches/s\n",
		mt.ConcurrentWallSeconds, mt.ConcurrentMeasuredAggregate)
	for _, tr := range mt.Tenants {
		fmt.Printf("  %-12s measured %8.1f mb/s under contention  held share %.2f  peak workers %d\n",
			tr.Tenant, tr.ConcurrentMeasuredMinibatchesPerSec,
			tr.ConcurrentHeldShareFraction, tr.ConcurrentPeakWorkers)
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runEngine(quick bool, handoff, out string) {
	if out == "" {
		out = "BENCH_engine.json"
	}
	rep, err := bench.RunSuiteHandoff(quick, handoff)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	fmt.Printf("%-28s %-8s %14s %12s %12s %10s\n", "config", "handoff", "examples/sec", "MB/sec", "ns/example", "allocs/ex")
	for _, r := range rep.Results {
		fmt.Printf("%-28s %-8s %14.0f %12.1f %12.0f %10.2f\n",
			r.Spec.Name, r.Spec.Handoff, r.ExamplesPerSec, r.BytesPerSec/1e6, r.NsPerExample, r.AllocsPerExample)
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runTuner(quick bool, out string) {
	if out == "" {
		out = "BENCH_tuner.json"
	}
	rep, err := bench.RunTuner(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	for _, s := range rep.Steps {
		line := fmt.Sprintf("step %2d: %9.1f minibatches/s observed", s.Step, s.ObservedMinibatchesPerSec)
		if s.Applied != nil {
			line += " -> " + s.Applied.Detail
		} else {
			line += " -> converged"
		}
		fmt.Println(line)
	}
	fmt.Printf("sequential  %10.0f examples/sec\n", rep.SequentialExamplesPerSec)
	fmt.Printf("tuned       %10.0f examples/sec\n", rep.TunedExamplesPerSec)
	fmt.Printf("hand-tuned  %10.0f examples/sec\n", rep.HandTunedExamplesPerSec)
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func runPlanner(quick bool, out string) {
	if out == "" {
		out = "BENCH_planner.json"
	}
	rep, err := bench.RunPlanner(quick)
	if err != nil {
		fatal(err)
	}
	writeJSON(out, rep)
	for _, m := range []bench.ModeRun{rep.Planner, rep.Greedy} {
		fmt.Printf("%-10s %2d traces  %8.1f ms to capacity  %10.0f examples/sec measured\n",
			m.Mode, m.TracesUsed, m.WallClockMS, m.MeasuredExamplesPerSec)
	}
	if rep.Planner.PredictedMinibatchesPerSec > 0 {
		fmt.Printf("planner predicted %.1f minibatches/s, a cold fill epoch of its program measured %.1f (error %.1f%%)\n",
			rep.Planner.PredictedMinibatchesPerSec, rep.Planner.FillMinibatchesPerSec,
			100*rep.Planner.PredictionError)
	}
	for k, v := range rep.Comparisons {
		fmt.Printf("%s = %.3f\n", k, v)
	}
	fmt.Printf("wrote %s\n", out)
}

func writeJSON(path string, doc any) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(fmt.Errorf("marshal: %w", err))
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(fmt.Errorf("write %s: %w", path, err))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "plumberbench: %v\n", err)
	os.Exit(1)
}
