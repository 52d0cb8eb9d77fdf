// Package simfs provides the storage substrate for the Plumber reproduction
// (§5.2's disk-bound setups): a filesystem serving synthetic TFRecord shards
// generated in memory and files registered on disk, a device model whose
// total bandwidth a token bucket enforces, read instrumentation for the
// tracer (§4.1's filename-to-bytes map), and seeded fault injection on the
// read path. Both kinds of file are read through one Reader, so every
// storage backend observes reads, injects faults and rewinds the same way.
// The connector package serves it behind each of its backends; nothing else
// reads it directly.
//
// The paper's disk microbenchmarks (§5.2) simulate bandwidths the same way,
// with a token-bucket limiter inside TensorFlow's filesystem layer.
package simfs

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Device models one storage device: a total bandwidth ceiling enforced by a
// token bucket, a per-stream bandwidth ceiling (sequential streams cannot
// individually saturate the device), and a request latency. simfs enforces
// only the total; the other two are read by the stores built on it.
type Device struct {
	// Name identifies the device, e.g. "hdd".
	Name string
	// TotalBandwidth is the aggregate read bandwidth in bytes/second.
	TotalBandwidth float64
	// PerStreamBandwidth is the bandwidth one sequential reader achieves in
	// bytes/second. The token bucket enforces only the total; a scenario's
	// object store paces each stream to this.
	PerStreamBandwidth float64
	// ReadLatency is the device's request latency. simfs never applies it;
	// a scenario's object store takes its base request latency from it.
	ReadLatency time.Duration
}

const mb = 1e6

// TokenBucket enforces a byte-rate limit in virtual time. It is pure
// arithmetic: Take reports how long the caller must wait, and the caller
// either sleeps (real engine) or advances its simulated clock (simulator).
type TokenBucket struct {
	mu sync.Mutex
	// rate is tokens (bytes) per second.
	rate float64
	// burst is the bucket capacity in bytes.
	burst float64
	// tokens available at time last.
	tokens float64
	last   time.Duration // virtual timestamp of last refill
}

// NewTokenBucket returns a bucket producing rate bytes/second with the given
// burst capacity. A non-positive or infinite rate disables limiting.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate / 10
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take requests n bytes at virtual time now and returns the delay the caller
// must incur before the read may complete. Requests larger than the burst
// are admitted but accrue proportional delay.
func (tb *TokenBucket) Take(now time.Duration, n int64) time.Duration {
	if tb == nil {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.rate <= 0 || math.IsInf(tb.rate, 1) {
		return 0
	}
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	tb.tokens -= float64(n)
	if tb.tokens >= 0 {
		return 0
	}
	// Deficit must be repaid at the token rate.
	deficit := -tb.tokens
	return time.Duration(deficit / tb.rate * float64(time.Second))
}

// Rate returns the configured byte rate.
func (tb *TokenBucket) Rate() float64 {
	if tb == nil {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rate
}

// SetRate changes the bucket's byte rate in place; in-flight deficits are
// repaid at the new rate from the next Take on. Used to ramp a device's
// bandwidth mid-run (drift injection for the live-reconfiguration doctor).
func (tb *TokenBucket) SetRate(rate float64) {
	if tb == nil {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.rate = rate
	if burst := rate / 4; burst > 0 && !math.IsInf(burst, 1) {
		tb.burst = burst
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
}

// String implements fmt.Stringer for diagnostics.
func (d Device) String() string {
	return fmt.Sprintf("%s(%.0fMB/s total, %.0fMB/s/stream)", d.Name, d.TotalBandwidth/mb, d.PerStreamBandwidth/mb)
}
