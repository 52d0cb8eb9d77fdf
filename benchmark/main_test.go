package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// quickRun runs one workload in -quick mode and returns its result and
// printed report.
func quickRun(t *testing.T, name string, cfg config) (*result, string) {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.workload, cfg.quick, cfg.outDir = name, true, t.TempDir()
	if cfg.seed == 0 {
		cfg.seed = 7
	}
	var out bytes.Buffer
	res, err := runOnce(*def, cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

// Every workload emits every declared metric, under its declared unit, as a
// finite number, and its delivered data verifies.
func TestQuickRunsEmitEveryDeclaredMetric(t *testing.T) {
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, out := quickRun(t, def.name, config{trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", def.name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", def.name, traced, d.name)
					continue
				}
				if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", def.name, traced, d.name, v.Value, v.Unit, d.unit)
				}
			}
		}
	}
}

// End-to-end metrics must never read 0: a regression bound is a share of
// the value.
func TestEndToEndMetricsAreNonZero(t *testing.T) {
	for _, def := range workloadDefs {
		res, _ := quickRun(t, def.name, config{})
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", def.name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
}

// A flipped payload byte fails verification: ops_failed counts it and the
// command exits non-zero.
func TestCorruptedPayloadFailsTheRun(t *testing.T) {
	res, out := quickRun(t, "vision", config{corrupt: true})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run reported correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "cold-storage", "-quick", "-corrupt", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("corrupted run exited 0\n%s", stdout.String())
	}
	last, err := lastResult(stdout.Bytes())
	if err != nil || last.Correct || last.Failed == 0 {
		t.Fatalf("corrupted run's last line: %+v, %v", last, err)
	}
}

// The seed decides the inputs: the same seed generates the same data, a
// different seed different data of the same size.
func TestSeedDeterminesInputs(t *testing.T) {
	def, _ := workloadByName("vision")
	quick := def.quickened()
	a, err := setUp(quick, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(quick, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setUp(quick, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.tenants[0].ref != b.tenants[0].ref {
		t.Errorf("same seed, different data: %+v vs %+v", a.tenants[0].ref, b.tenants[0].ref)
	}
	if a.tenants[0].ref.Hash == c.tenants[0].ref.Hash {
		t.Errorf("different seeds, same hash %x", a.tenants[0].ref.Hash)
	}
	if a.tenants[0].ref.Examples != c.tenants[0].ref.Examples || a.tenants[0].ref.Minibatches != c.tenants[0].ref.Minibatches {
		t.Errorf("different seeds changed the amount of work: %+v vs %+v", a.tenants[0].ref, c.tenants[0].ref)
	}
}

// The payload hash does not depend on how records are grouped or ordered,
// and does depend on every byte.
func TestPayloadHashIsOrderIndependent(t *testing.T) {
	a, b := []byte("plumber"), []byte("benchmark")
	joined := append(append([]byte(nil), b...), a...)
	if hashBytes(a)+hashBytes(b) != hashBytes(joined) {
		t.Error("hash of two payloads differs from the hash of their concatenation in the other order")
	}
	flipped := append([]byte(nil), joined...)
	flipped[3] ^= 1
	if hashBytes(flipped) == hashBytes(joined) {
		t.Error("a flipped bit left the hash unchanged")
	}
}

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("%s: unit %q is not well formed", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
		}
	}
	for _, w := range workloadDefs {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// BENCHMARK.json at the root of the repository declares what this program
// measures; the declaration and the tables compiled in here must be equal.
func TestDeclarationMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d compiled in", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, compiled in %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d compiled in", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: declared %+v, compiled in %+v", kind, i, g, d)
			}
			switch {
			case bounded != (g.Bound != nil):
				t.Errorf("%s %s: a bound is declared: %v, compiled in: %v", kind, d.name, g.Bound != nil, bounded)
			case bounded && *g.Bound != d.bound:
				t.Errorf("%s %s: declared bound %v, compiled in %v", kind, d.name, *g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20, 50, 40}, 15, 45},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// Self time is a span's duration minus what its children cover, and the
// span file is a Chrome trace-event array.
func TestSpansSelfTimeAndFile(t *testing.T) {
	l := newSpanLog("test")
	endOuter := l.begin("outer")
	endInner := l.begin("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	endOuter()
	self := l.selfTimes()
	if self["outer"]+self["inner"] != l.duration("outer") {
		t.Errorf("self times %v do not add up to the outer span %v", self, l.duration("outer"))
	}
	if self["inner"] < 2*time.Millisecond || self["outer"] >= self["inner"] {
		t.Errorf("self times %v: inner should hold the sleep", self)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Ph != "X" || events[1].Args["parent"] != "outer" {
		t.Errorf("span file holds %+v", events)
	}
	var nilLog *spanLog
	nilLog.begin("ignored")() // the untraced passes record nothing
}
