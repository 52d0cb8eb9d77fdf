package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"plumber/internal/stats"
)

// Retry is the engine's fault-absorption policy, applied at source opens,
// source record reads, and UDF invocations. The zero value disables
// retries: every failure surfaces on first occurrence (wrapped as a
// *StageError). An error is considered retryable when it implements
// `Transient() bool` returning true — connector.FaultError does, and UDF
// bodies can opt their errors in the same way; everything else is treated
// as permanent.
type Retry struct {
	// MaxAttempts is the total number of tries per operation, including
	// the first. Values <= 1 disable retrying.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (exponential backoff). Zero defaults to 500µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero defaults to 50ms.
	MaxBackoff time.Duration
	// JitterFrac scales each backoff by a uniform factor in
	// [1-JitterFrac, 1+JitterFrac], decorrelating retry storms. Zero
	// keeps the schedule exact (useful for deterministic tests).
	JitterFrac float64
}

// Backoff returns the delay before retry number `attempt` (1-based: the
// delay after the attempt-th failure). rng supplies jitter and may be nil
// when JitterFrac is zero.
func (r Retry) Backoff(attempt int, rng *stats.RNG) time.Duration {
	base := r.BaseBackoff
	if base <= 0 {
		base = 500 * time.Microsecond
	}
	cap := r.MaxBackoff
	if cap <= 0 {
		cap = 50 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if r.JitterFrac > 0 && rng != nil {
		d = time.Duration(rng.Jitter(float64(d), r.JitterFrac))
	}
	return d
}

// StageError is the typed error a pipeline stage surfaces once the retry
// policy is exhausted (or immediately, for permanent and non-retryable
// failures). It wraps the underlying cause, so errors.As reaches e.g. the
// injected *connector.FaultError.
type StageError struct {
	// Stage is the pipeline node that failed.
	Stage string
	// Op is the failed operation: "open", "read", or "udf".
	Op string
	// Attempts is how many tries were made, including the failing one.
	Attempts int
	// GaveUp is true when the final failure was transient but the attempt
	// budget ran out.
	GaveUp bool
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *StageError) Error() string {
	return fmt.Sprintf("engine: stage %q %s failed after %d attempt(s): %v", e.Stage, e.Op, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// transienter is the duck-typed interface marking retryable errors.
type transienter interface{ Transient() bool }

// transient reports whether err is marked recoverable-by-retry.
func transient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// errInterrupted signals that a retry backoff was cut short by shutdown or
// cancellation; workers exit without emitting it downstream.
var errInterrupted = errors.New("engine: retry interrupted by shutdown")

// retrier applies one pipeline's Retry policy at one stage for one worker
// goroutine. It owns a private jitter stream (seeded deterministically) and
// funnels outcome counts into both the worker's tracker shard and the
// pipeline-wide aggregate.
type retrier struct {
	p      *Pipeline
	policy Retry
	stage  string
	tr     *tracker
	done   <-chan struct{}
	rng    *stats.RNG
}

func (p *Pipeline) retrier(stage string, tr *tracker, done <-chan struct{}, seed uint64) retrier {
	return retrier{p: p, policy: p.opts.Retry, stage: stage, tr: tr, done: done, rng: stats.NewRNG(seed)}
}

// do runs op under the retry policy. io.EOF passes through untouched (it is
// a stream state, not a failure). Transient errors are retried with
// exponential backoff while attempts allow; the final failure is counted
// and wrapped in a *StageError. A backoff cut short by shutdown returns
// errInterrupted.
func (rt *retrier) do(op string, f func() error) error {
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil || err == io.EOF {
			return err
		}
		isTransient := transient(err)
		if isTransient && attempt < rt.policy.MaxAttempts {
			rt.noteRetry()
			if !rt.sleep(rt.policy.Backoff(attempt, rt.rng)) {
				return errInterrupted
			}
			continue
		}
		rt.noteError(isTransient)
		return &StageError{Stage: rt.stage, Op: op, Attempts: attempt, GaveUp: isTransient, Err: err}
	}
}

// sleep waits for d or until shutdown; it reports whether the full backoff
// elapsed.
func (rt *retrier) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-rt.done:
		return false
	}
}

func (rt *retrier) noteRetry() {
	rt.p.nRetries.Add(1)
	if rt.tr != nil {
		rt.tr.retried()
	}
}

func (rt *retrier) noteError(gaveUp bool) {
	rt.p.nErrors.Add(1)
	if gaveUp {
		rt.p.nGaveUp.Add(1)
	}
	if rt.tr != nil {
		rt.tr.errored(gaveUp)
	}
}

// safeCall invokes a UDF body, converting a panic into an error so one bad
// element fails its own pipeline (contained and reported) instead of
// crashing the whole process.
func safeCall(body func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("udf panicked: %v", p)
		}
	}()
	return body()
}

// doneLatch is a close-once done channel: the consumer's Close, an
// asynchronous Cancel, and racing duplicate Closes can all fire it safely.
type doneLatch struct {
	once sync.Once
	ch   chan struct{}
}

func newLatch() *doneLatch { return &doneLatch{ch: make(chan struct{})} }

func (l *doneLatch) close() { l.once.Do(func() { close(l.ch) }) }
