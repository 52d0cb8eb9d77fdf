package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRepeat runs the workload n times, each in a fresh child process with
// its own seed, and prints for every end-to-end metric the spread of the n
// per-run medians — interquartile range over median, the acceptance rule's
// quantity — against the metric's bound. "-workload all" does so for every
// workload in turn. Children run one after another: two at once would
// measure each other.
func runRepeat(cfg config, n int, stdout, stderr io.Writer) int {
	var defs []workloadDef
	if cfg.workload == "all" {
		defs = workloadDefs
	} else {
		def, err := workloadByName(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defs = []workloadDef{*def}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, def := range defs {
		runs := samples{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + uint64(i)
			args := []string{"-workload", def.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-out", cfg.outDir}
			if cfg.quick {
				args = append(args, "-quick")
			}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			runErr := cmd.Run()
			res, perr := lastResult(buf.Bytes())
			if runErr != nil || perr != nil || !res.Correct {
				fmt.Fprintf(stdout, "%s seed %d: run failed (%v %v)\n%s\n", def.name, seed, runErr, perr, buf.String())
				status = 1
				continue
			}
			fmt.Fprintf(stdout, "%s seed %d:", def.name, seed)
			for _, d := range endToEnd {
				runs.add(d.name, res.Metrics[d.name].Value)
				fmt.Fprintf(stdout, " %s=%.5g", d.name, res.Metrics[d.name].Value)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s: spread of %d runs (interquartile range / median) against each metric's bound\n", def.name, n)
		fmt.Fprintf(stdout, "  %-26s %12s %-6s %9s %7s  %s\n", "metric", "median", "unit", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			sp := spread(runs[d.name])
			verdict := "steady (under a third of the bound)"
			switch {
			case sp > d.bound:
				verdict = "NOISY (over the bound)"
				if d.name != "setup_s" { // setup_s is gated on its median only
					status = 1
				}
			case sp > d.bound/3:
				verdict = "wide (over a third of the bound)"
			}
			fmt.Fprintf(stdout, "  %-26s %12.6g %-6s %8.2f%% %6.0f%%  %s\n", d.name, median(runs[d.name]), d.unit, 100*sp, 100*d.bound, verdict)
		}
	}
	return status
}

// lastResult parses the JSON object on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
