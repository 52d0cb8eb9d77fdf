package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// TestRetryBackoffSchedule pins the deterministic (jitter-free) exponential
// schedule and its cap.
func TestRetryBackoffSchedule(t *testing.T) {
	rt := Retry{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := rt.Backoff(i+1, nil); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Defaults: zero base/cap become 500µs doubling to 50ms.
	d := Retry{MaxAttempts: 2}
	if got := d.Backoff(1, nil); got != 500*time.Microsecond {
		t.Fatalf("default Backoff(1) = %v, want 500µs", got)
	}
	if got := d.Backoff(20, nil); got != 50*time.Millisecond {
		t.Fatalf("default Backoff(20) = %v, want the 50ms cap", got)
	}
	// Jitter stays within [1-f, 1+f] of the schedule.
	j := Retry{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond, JitterFrac: 0.25}
	rng := stats.NewRNG(11)
	for i := 0; i < 100; i++ {
		got := j.Backoff(2, rng)
		if got < 1500*time.Microsecond || got > 2500*time.Microsecond {
			t.Fatalf("jittered Backoff(2) = %v, outside [1.5ms, 2.5ms]", got)
		}
	}
}

// TestRetryAbsorbsScriptedSourceFaults is the fail-twice-succeed-third
// integration: every shard's first two read calls fail transiently, the
// retry policy absorbs them, the drain sees every element, zero errors
// reach the caller, and the per-stage trace counters record the retries.
func TestRetryAbsorbsScriptedSourceFaults(t *testing.T) {
	fs, reg := testSetup(t)
	fs.SetFaults(&connector.FaultPlan{Seed: 1, Rules: []connector.FaultRule{
		{Name: "script", FailFirstReads: 2},
	}})
	g := canonicalGraph(t, 2)
	col, err := trace.NewCollector(g, trace.Machine{Name: "retry-test", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{
		FS: fs, UDFs: reg, Collector: col,
		Retry: Retry{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	elements, examples, err := p.Drain(0)
	if err != nil {
		t.Fatalf("drain under scripted transient faults: %v", err)
	}
	if examples != total || elements != total/8 {
		t.Fatalf("got %d elements / %d examples, want %d / %d", elements, examples, total/8, total)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	es := p.ErrorStats()
	wantRetries := int64(2 * testCatalog.NumFiles) // 2 scripted failures per shard
	if es.Retries != wantRetries {
		t.Fatalf("ErrorStats.Retries = %d, want %d", es.Retries, wantRetries)
	}
	if es.Errors != 0 || es.GaveUp != 0 {
		t.Fatalf("errors leaked past the retry policy: %+v", es)
	}
	// The retries are attributed to the source stage in the trace.
	snap := col.Snapshot(time.Second, testCatalog.NumFiles)
	var traced int64
	for name, ns := range snap.Nodes {
		if ns.Errors != 0 {
			t.Fatalf("node %s recorded %d errors; all faults were absorbed", name, ns.Errors)
		}
		traced += ns.Retries
	}
	if traced != wantRetries {
		t.Fatalf("trace recorded %d retries across nodes, want %d", traced, wantRetries)
	}
}

// TestPermanentFaultSurfacesTypedError pins fail-fast on unrecoverable
// faults: no retry attempts are wasted, the caller gets a typed *StageError
// wrapping the *connector.FaultError, and the drain terminates promptly instead
// of hanging.
func TestPermanentFaultSurfacesTypedError(t *testing.T) {
	fs, reg := testSetup(t)
	fs.SetFaults(&connector.FaultPlan{Rules: []connector.FaultRule{
		{Name: "dead", ErrorRate: 1, Permanent: true},
	}})
	p, err := New(canonicalGraph(t, 2), Options{
		FS: fs, UDFs: reg,
		Retry: Retry{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Drain(0)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain hung on a permanent fault")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %v", err)
	}
	if se.Attempts != 1 || se.GaveUp {
		t.Fatalf("permanent fault got %d attempts (gaveUp=%v), want exactly 1 and no give-up", se.Attempts, se.GaveUp)
	}
	var fe *connector.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("StageError does not unwrap to the injected *connector.FaultError: %v", err)
	}
	es := p.ErrorStats()
	if es.Errors == 0 || es.Retries != 0 {
		t.Fatalf("ErrorStats = %+v, want errors counted and zero retries", es)
	}
}

// TestRetryGivesUpAfterMaxAttempts pins the exhaustion path: a fault that
// stays transient forever surfaces after exactly MaxAttempts tries, marked
// GaveUp.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	fs, reg := testSetup(t)
	fs.SetFaults(&connector.FaultPlan{Rules: []connector.FaultRule{
		{Name: "cursed", ErrorRate: 1},
	}})
	p, err := New(canonicalGraph(t, 1), Options{
		FS: fs, UDFs: reg,
		Retry: Retry{MaxAttempts: 3, BaseBackoff: 20 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, _, err = p.Drain(0)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %v", err)
	}
	if se.Attempts != 3 || !se.GaveUp {
		t.Fatalf("got %d attempts (gaveUp=%v), want 3 attempts and GaveUp", se.Attempts, se.GaveUp)
	}
	es := p.ErrorStats()
	if es.GaveUp == 0 {
		t.Fatalf("ErrorStats.GaveUp = 0 after giving up: %+v", es)
	}
}

// TestUDFRetryAndPanicContainment covers the map stage: a UDF whose
// transient failures are absorbed by the policy, and a panicking UDF whose
// panic is contained to a pipeline error instead of crashing the process.
func TestUDFRetryAndPanicContainment(t *testing.T) {
	fs, reg := testSetup(t)
	var flaky udfFailCounter
	if err := reg.Register(udf.UDF{
		Name: "flaky",
		Body: flaky.body(2), // first two invocations fail transiently
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(udf.UDF{
		Name: "exploder",
		Body: func(e data.Element) (data.Element, bool, error) {
			panic("boom")
		},
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}

	p, err := New(mapGraph(t, "flaky"), Options{
		FS: fs, UDFs: reg,
		Retry: Retry{MaxAttempts: 4, BaseBackoff: 20 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Drain(0); err != nil {
		t.Fatalf("drain with flaky UDF under retry: %v", err)
	}
	p.Close()
	if es := p.ErrorStats(); es.Retries != 2 || es.Errors != 0 {
		t.Fatalf("ErrorStats = %+v, want exactly 2 retries and no errors", es)
	}

	fs2, _ := testSetup(t)
	p2, err := New(mapGraph(t, "exploder"), Options{FS: fs2, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	_, _, err = p2.Drain(0)
	var se *StageError
	if !errors.As(err, &se) || se.Op != "udf" {
		t.Fatalf("want a udf *StageError from the contained panic, got %v", err)
	}
}

// udfFailCounter makes a UDF body whose first n invocations fail with a
// transient error.
type udfFailCounter struct {
	mu    chan struct{}
	calls int
}

type transientUDFErr struct{ n int }

func (e *transientUDFErr) Error() string   { return fmt.Sprintf("flaky udf failure %d", e.n) }
func (e *transientUDFErr) Transient() bool { return true }

func (c *udfFailCounter) body(failFirst int) udf.Func {
	c.mu = make(chan struct{}, 1)
	c.mu <- struct{}{}
	return func(e data.Element) (data.Element, bool, error) {
		<-c.mu
		c.calls++
		n := c.calls
		c.mu <- struct{}{}
		if n <= failFirst {
			return data.Element{}, false, &transientUDFErr{n: n}
		}
		return e, true, nil
	}
}

func mapGraph(t *testing.T, udfName string) *pipeline.Graph {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 1).
		Map(udfName, 1).
		Batch(8).
		Prefetch(2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// slowSetup is testSetup with "slow", a UDF that takes 2 ms an element: a
// drain over it is mid-flight when a cancel lands.
func slowSetup(t *testing.T) (*connector.SimFS, *udf.Registry) {
	fs, reg := testSetup(t)
	if err := reg.Register(udf.UDF{
		Name: "slow",
		Body: func(e data.Element) (data.Element, bool, error) {
			time.Sleep(2 * time.Millisecond)
			return e, true, nil
		},
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	return fs, reg
}

// TestCancelUnblocksAndSurfacesCause pins the cancellation contract: Cancel
// from another goroutine unblocks a draining consumer with the cancel
// cause, and Close after Cancel stays safe and idempotent. A Batch canceled
// mid-fill hands the consumer its partial minibatch first, then the cause.
func TestCancelUnblocksAndSurfacesCause(t *testing.T) {
	fs, reg := slowSetup(t)
	p, err := New(mapGraph(t, "slow"), Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.Drain(0)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	p.Cancel()
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after Cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled drain returned %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close %d after Cancel: %v", i+1, err)
		}
	}

	// The UDF cancels its own pipeline as it starts on the fifth record, 2 ms
	// a record into a minibatch of eight: the four before it are on the edge
	// or in the batch, which the consumer is blocked filling. Inline (at
	// parallelism 1) the stage makes no call after the one that canceled;
	// two workers may each finish the call they are in.
	var mid *Pipeline
	var calls atomic.Int32
	if err := reg.Register(udf.UDF{
		Name: "cancel_fifth",
		Body: func(e data.Element) (data.Element, bool, error) {
			if calls.Add(1) == 5 {
				mid.Cancel()
			}
			time.Sleep(2 * time.Millisecond)
			return e, true, nil
		},
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	src := func() *pipeline.Builder { return pipeline.NewBuilder().Interleave(testCatalog.Name, 1) }
	for _, tc := range []struct {
		name     string
		g        *pipeline.Graph
		maxCalls int32
	}{
		{"inline map", src().Map("cancel_fifth", 1).Batch(8).MustBuild(), 5},
		{"inline body filter", src().Filter("cancel_fifth").Batch(8).MustBuild(), 5},
		{"map on two workers", src().Map("cancel_fifth", 2).Batch(8).MustBuild(), 6},
	} {
		calls.Store(0)
		if mid, err = New(tc.g, Options{FS: fs, UDFs: reg}); err != nil {
			t.Fatal(err)
		}
		e, err := mid.Next()
		if err != nil || e.Count < 1 || e.Count >= 8 {
			t.Errorf("%s: a batch canceled mid-fill delivered %d examples (%v), want its partial minibatch", tc.name, e.Count, err)
		}
		if _, err := mid.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: after the partial minibatch: %v, want context.Canceled", tc.name, err)
		}
		mid.Close()
		if n := calls.Load(); n > tc.maxCalls {
			t.Errorf("%s: the UDF was called %d times, want at most %d after it canceled at the fifth", tc.name, n, tc.maxCalls)
		}
	}
}

// TestOptionsContextCancels pins the one context entry point: a context
// that has already ended cancels the pipeline before New returns, and a
// deadline interrupts a blocked Drain with the context's cause.
func TestOptionsContextCancels(t *testing.T) {
	fs, reg := testSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := New(canonicalGraph(t, 1), Options{FS: fs, UDFs: reg, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Cancel drops no handed-off element; the stream still ends with the cause.
	var cause error
	for i := 0; i < 10000 && cause == nil; i++ {
		_, cause = p.Next()
	}
	if !errors.Is(cause, context.Canceled) {
		t.Fatalf("stream under an ended context finished with %v, want context.Canceled", cause)
	}

	fs2, reg2 := slowSetup(t)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	p2, err := New(mapGraph(t, "slow"), Options{FS: fs2, UDFs: reg2, Context: dctx})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := p2.Drain(0)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain ignored the Options.Context deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v, want context.DeadlineExceeded", err)
	}
}

// TestLatchRegistryHoldsLiveStagesOnly: a stage drops its latch when it
// stops, so the epochs Repeat rebuilds leave only the live source's and
// map's latches registered, not two per epoch, and Close empties it.
func TestLatchRegistryHoldsLiveStagesOnly(t *testing.T) {
	fs, reg := testSetup(t)
	g := pipeline.NewBuilder().Interleave(testCatalog.Name, 2).Map("noop", 2).Repeat(100).Batch(8).MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Stages register and drop latches on the consumer's goroutine, which
	// is this one: the registry is read here without the lock.
	if _, _, err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	if n := len(p.interrupts); n > 2 {
		t.Fatalf("%d latches registered after 100 epochs, want at most the live source's and map's 2", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(p.interrupts); n != 0 {
		t.Fatalf("%d latches registered after Close, want 0", n)
	}
}
