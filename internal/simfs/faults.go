package simfs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"plumber/internal/stats"
)

// Fault injection for the simulated filesystem. A FaultPlan installed with
// FS.SetFaults makes readers misbehave in the ways real storage backends do
// — transient and permanent read errors, tail-latency spikes, mid-read
// stalls, and bandwidth-degradation ramps — so the engine's retry policy and
// the host layer's failure isolation can be exercised reproducibly. All
// random draws come from a seeded stats.RNG stream: scripted rules
// (FailFirstReads) are exactly deterministic per path, while rate-based
// rules are deterministic as a stream (the per-call interleaving across
// concurrent readers may vary, the marginal distribution does not).
//
// Plans are per-FS; since an FS models one device, rules without a
// PathPrefix act per-device and rules with one act per-path(-prefix).

// FaultError is the typed error injected by a FaultPlan. Callers (the
// engine's retrier) distinguish recoverable faults via Transient.
type FaultError struct {
	// Path is the file whose read (or open) faulted.
	Path string
	// Op is the faulted operation, "read" or "open".
	Op string
	// Rule names the FaultRule that fired.
	Rule string
	// Permanent marks faults that will not heal on retry.
	Permanent bool
}

// Error implements error.
func (e *FaultError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("simfs: injected %s fault (rule %q) during %s %s", kind, e.Rule, e.Op, e.Path)
}

// Transient reports whether a retry may succeed.
func (e *FaultError) Transient() bool { return !e.Permanent }

// FaultRule injects one fault class on every path matching PathPrefix
// (empty prefix matches all paths). Zero-valued fields disable the
// corresponding fault class, so one rule can combine classes or stay
// narrowly scoped.
type FaultRule struct {
	// Name labels the rule in errors and audits.
	Name string
	// PathPrefix scopes the rule; empty matches every path.
	PathPrefix string

	// ErrorRate is the probability that a matched read call fails.
	ErrorRate float64
	// FailFirstReads deterministically fails the first N matched read
	// calls on each path — the scripted "fail twice, succeed third" knob.
	FailFirstReads int
	// Permanent marks injected errors as unrecoverable (retries keep
	// failing and the engine surfaces a typed error instead of absorbing).
	Permanent bool

	// SpikeRate is the probability a matched read pays a latency spike.
	SpikeRate float64
	// SpikeBase is the spike's base duration.
	SpikeBase time.Duration
	// SpikeTailSigma is the lognormal sigma multiplying SpikeBase; zero
	// means fixed-size spikes, larger values grow the tail.
	SpikeTailSigma float64

	// StallAfterBytes injects one mid-read stall per reader, on the first
	// read at or past this byte offset (zero disables).
	StallAfterBytes int64
	// StallDuration is the stall's length.
	StallDuration time.Duration

	// RampSeconds ramps a per-read delay linearly from zero at plan
	// installation to RampDelayPerRead after RampSeconds, modeling a
	// device whose effective bandwidth degrades over time.
	RampSeconds float64
	// RampDelayPerRead is the per-read delay reached at the end of the ramp.
	RampDelayPerRead time.Duration
}

func (r *FaultRule) matches(path string) bool {
	return r.PathPrefix == "" || strings.HasPrefix(path, r.PathPrefix)
}

// FaultPlan is a seeded set of fault rules.
type FaultPlan struct {
	// Seed drives every random draw the plan makes.
	Seed uint64
	// Rules are evaluated in order on each read; the first error wins but
	// every rule's delay contributions accumulate.
	Rules []FaultRule
}

// FaultStats counts what a plan actually injected.
type FaultStats struct {
	// Errors is the number of injected read/open errors.
	Errors int64 `json:"errors"`
	// Spikes is the number of latency spikes paid.
	Spikes int64 `json:"spikes"`
	// Stalls is the number of mid-read stalls paid.
	Stalls int64 `json:"stalls"`
	// DelayNanos is the total injected delay (spikes + stalls + ramp).
	DelayNanos int64 `json:"delay_nanos"`
}

// injector is the runtime state behind an installed FaultPlan.
type injector struct {
	mu    sync.Mutex
	plan  FaultPlan
	rng   *stats.RNG
	reads map[string][]int64 // per-path, per-rule matched read-call counts
	start time.Time
	stats FaultStats
}

// newInjector returns a fresh injector for a plan; the ramp clock starts now.
func newInjector(plan FaultPlan) *injector {
	return &injector{
		plan:  plan,
		rng:   stats.NewRNG(plan.Seed),
		reads: make(map[string][]int64),
		start: time.Now(),
	}
}

// Inject evaluates the plan for one read call on path. stalled is the
// calling reader's per-rule stall latch (allocated here on first use, and
// again under a plan with another number of rules). The returned delay must
// be slept by the caller before returning the error (a faulting backend is
// slow and broken, not just broken).
func (fi *injector) Inject(path string, off int64, stalled *[]bool) (time.Duration, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	counts := fi.reads[path]
	if counts == nil {
		counts = make([]int64, len(fi.plan.Rules))
		fi.reads[path] = counts
	}
	if len(*stalled) != len(fi.plan.Rules) { // first use, or a plan swapped in
		*stalled = make([]bool, len(fi.plan.Rules))
	}
	var delay time.Duration
	var err error
	for i := range fi.plan.Rules {
		r := &fi.plan.Rules[i]
		if !r.matches(path) {
			continue
		}
		counts[i]++
		if r.SpikeRate > 0 && fi.rng.Float64() < r.SpikeRate {
			d := float64(r.SpikeBase)
			if r.SpikeTailSigma > 0 {
				d *= fi.rng.LogNormal(0, r.SpikeTailSigma)
			}
			delay += time.Duration(d)
			fi.stats.Spikes++
		}
		if r.StallAfterBytes > 0 && off >= r.StallAfterBytes && !(*stalled)[i] {
			(*stalled)[i] = true
			delay += r.StallDuration
			fi.stats.Stalls++
		}
		if r.RampDelayPerRead > 0 {
			frac := 1.0
			if r.RampSeconds > 0 {
				if el := time.Since(fi.start).Seconds() / r.RampSeconds; el < 1 {
					frac = el
				}
			}
			delay += time.Duration(frac * float64(r.RampDelayPerRead))
		}
		if err == nil {
			fail := counts[i] <= int64(r.FailFirstReads)
			if !fail && r.ErrorRate > 0 {
				fail = fi.rng.Float64() < r.ErrorRate
			}
			if fail {
				err = &FaultError{Path: path, Op: "read", Rule: r.Name, Permanent: r.Permanent}
				fi.stats.Errors++
			}
		}
	}
	fi.stats.DelayNanos += int64(delay)
	return delay, err
}

// Stats snapshots what the injector has delivered so far.
func (fi *injector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// SetFaults installs a fault plan on the filesystem (nil clears it). The
// plan applies to reads issued after installation, so tracing can run
// fault-free and chaos can be switched on for the measured run.
func (fs *FS) SetFaults(plan *FaultPlan) {
	if plan == nil {
		fs.faults.Store(nil)
		return
	}
	fs.faults.Store(newInjector(*plan))
}

// FaultStats reports what the installed plan has injected so far; zero
// when no plan is installed.
func (fs *FS) FaultStats() FaultStats {
	fi := fs.faults.Load()
	if fi == nil {
		return FaultStats{}
	}
	return fi.Stats()
}
