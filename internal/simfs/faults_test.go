package simfs

import (
	"errors"
	"io"
	"testing"
	"time"
)

// TestFaultScriptFailFirstReads pins the scripted determinism the engine's
// retry tests build on: the first N read calls on a path fail with a typed
// transient error, the next succeeds, and a failed read consumes no offset
// (the retry replays exactly the bytes the failed call would have returned).
func TestFaultScriptFailFirstReads(t *testing.T) {
	fs, _ := testCatalogFS(t)
	path := fs.List()[0]
	fs.SetFaults(&FaultPlan{Seed: 1, Rules: []FaultRule{
		{Name: "script", FailFirstReads: 2},
	}})

	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		n, err := r.Read(buf)
		if n != 0 || err == nil {
			t.Fatalf("scripted read %d: got (%d, %v), want an injected error and no bytes", i+1, n, err)
		}
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("scripted read %d: error %v is not a *FaultError", i+1, err)
		}
		if !fe.Transient() {
			t.Fatalf("scripted read %d: fault should be transient", i+1)
		}
		if r.Offset() != 0 {
			t.Fatalf("failed read consumed offset: %d", r.Offset())
		}
	}
	n, err := r.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("third read: got (%d, %v), want data", n, err)
	}
	if st := fs.FaultStats(); st.Errors != 2 {
		t.Fatalf("FaultStats.Errors = %d, want 2", st.Errors)
	}

	// The script is per-path: a fresh path gets its own two failures.
	r2, err := fs.Open(fs.List()[1])
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.Read(buf); err == nil {
		t.Fatal("second path's first read should fail under the per-path script")
	}

	// Clearing the plan heals everything.
	fs.SetFaults(nil)
	if _, err := r2.Read(buf); err != nil {
		t.Fatalf("read after clearing faults: %v", err)
	}
}

// TestFaultPermanentMarked pins that Permanent rules produce non-transient
// errors (the engine must surface them instead of retrying).
func TestFaultPermanentMarked(t *testing.T) {
	fs, _ := testCatalogFS(t)
	fs.SetFaults(&FaultPlan{Rules: []FaultRule{
		{Name: "dead", ErrorRate: 1, Permanent: true},
	}})
	r, err := fs.Open(fs.List()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Read(make([]byte, 8))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Transient() {
		t.Fatalf("want a permanent *FaultError, got %v", err)
	}
}

// TestFaultDelaysAccounted pins that spikes and stalls actually delay the
// read and land in FaultStats.
func TestFaultDelaysAccounted(t *testing.T) {
	fs, _ := testCatalogFS(t)
	fs.SetFaults(&FaultPlan{Seed: 3, Rules: []FaultRule{
		{Name: "spiky", SpikeRate: 1, SpikeBase: time.Millisecond},
		{Name: "stall", StallAfterBytes: 1, StallDuration: 2 * time.Millisecond},
	}})
	r, err := fs.Open(fs.List()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 32)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	st := fs.FaultStats()
	if st.Spikes != 3 {
		t.Fatalf("Spikes = %d, want 3 (rate 1)", st.Spikes)
	}
	if st.Stalls != 1 {
		t.Fatalf("Stalls = %d, want exactly 1 per reader", st.Stalls)
	}
	if st.DelayNanos <= 0 {
		t.Fatal("DelayNanos not accounted")
	}
	if elapsed < 3*time.Millisecond {
		t.Fatalf("reads finished in %v; injected delays were not slept", elapsed)
	}
}

// TestReaderRewind pins the offset/rewind contract the engine's read-retry
// depends on: rewinding to a saved offset replays identical bytes, and
// invalid rewinds (negative, beyond the high-water offset, closed reader)
// are rejected.
func TestReaderRewind(t *testing.T) {
	fs, _ := testCatalogFS(t)
	path := fs.List()[0]
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	first := make([]byte, 100)
	if _, err := io.ReadFull(r, first); err != nil {
		t.Fatal(err)
	}
	mark := r.Offset()
	second := make([]byte, 50)
	if _, err := io.ReadFull(r, second); err != nil {
		t.Fatal(err)
	}
	if err := r.Rewind(mark); err != nil {
		t.Fatal(err)
	}
	if got := r.Offset(); got != mark {
		t.Fatalf("Offset after Rewind = %d, want %d", got, mark)
	}
	replay := make([]byte, 50)
	if _, err := io.ReadFull(r, replay); err != nil {
		t.Fatal(err)
	}
	if string(replay) != string(second) {
		t.Fatal("rewound read did not replay identical bytes")
	}

	if err := r.Rewind(-1); err == nil {
		t.Fatal("Rewind(-1) should fail")
	}
	if err := r.Rewind(r.Offset() + 1); err == nil {
		t.Fatal("Rewind past the current offset should fail")
	}
	rc, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if err := rc.Rewind(0); err == nil {
		t.Fatal("Rewind on a closed reader should fail")
	}
}

// TestAbandonedReaderFlushesObservation is the regression test for readers
// abandoned mid-file (e.g. a pipeline canceled or failed between records):
// Close must flush the batched read observation so tracing and accounting
// see every byte that was actually read, EOF or not.
func TestAbandonedReaderFlushesObservation(t *testing.T) {
	fs, _ := testCatalogFS(t)
	path := fs.List()[0]
	obs := &countingObserver{}
	fs.AddObserver(obs)

	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	n, err := io.ReadFull(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.total(); got != 0 {
		// The batched observation may legitimately flush early once the
		// batch threshold is crossed; this test keeps the read well under
		// it, so anything nonzero here means the threshold moved — keep the
		// read smaller than the batch size.
		t.Fatalf("observation flushed before Close (%d bytes); shrink the test read", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := obs.total(); got != int64(n) {
		t.Fatalf("observer saw %d bytes after abandoning reader, want %d (Close must flush)", got, n)
	}
	if got := fs.TotalBytesRead(); got != int64(n) {
		t.Fatalf("TotalBytesRead = %d, want %d", got, n)
	}
}

// TestFaultPlanSwapUnderAnOpenReader: a reader that read under one plan
// reads on under a plan with more rules, its stall latch sized to the new
// plan: a stall rule the old plan did not have fires once, and indexes no
// latch past its end.
func TestFaultPlanSwapUnderAnOpenReader(t *testing.T) {
	fs, _ := testCatalogFS(t)
	path := fs.List()[0]
	fs.SetFaults(&FaultPlan{Seed: 1, Rules: []FaultRule{{Name: "quiet"}}})
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 64)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(&FaultPlan{Seed: 1, Rules: []FaultRule{
		{Name: "quiet"},
		{Name: "stall", StallAfterBytes: 1, StallDuration: time.Microsecond},
	}})
	for i := 0; i < 3; i++ {
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := fs.FaultStats(); st.Stalls != 1 {
		t.Fatalf("the new plan's stall rule fired %d times, want once", st.Stalls)
	}
}

// TestFaultPlanSwapRearmsTheStallLatch: a reader that stalled under one plan
// stalls again under a plan swapped in with an identical rule (as many
// rules, another seed), as a fresh reader would. The latch belongs to the
// plan that set it.
func TestFaultPlanSwapRearmsTheStallLatch(t *testing.T) {
	fs, _ := testCatalogFS(t)
	plan := func(seed uint64) *FaultPlan {
		return &FaultPlan{Seed: seed, Rules: []FaultRule{{Name: "stall", StallAfterBytes: 1, StallDuration: time.Microsecond}}}
	}
	r, err := fs.Open(fs.List()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 64)
	for _, seed := range []uint64{1, 2} {
		fs.SetFaults(plan(seed))
		for i := 0; i < 3; i++ {
			if _, err := r.Read(buf); err != nil {
				t.Fatal(err)
			}
		}
		if st := fs.FaultStats(); st.Stalls != 1 {
			t.Fatalf("plan %d: the stall rule fired %d times on an open reader, want once", seed, st.Stalls)
		}
	}
}
