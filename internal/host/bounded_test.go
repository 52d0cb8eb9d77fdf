package host_test

import (
	"io"
	"math"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/host"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/simfs"
)

// TestBoundedTraceTenant: admitting a tenant costs the arbiter a settled
// prefix of the tenant's job, not an epoch, and reads the same rate — off the
// records its batch is handed, not off the minibatches the batch makes. The
// tenant is paced by a throttled device (1 000 framed bytes a record at
// 1 MB/s: 62.5 minibatches of 16 a second, 0.77 s an epoch), so the numbers
// hold on a loaded host.
func TestBoundedTraceTenant(t *testing.T) {
	cat := data.Catalog{Name: "host-bounded", NumFiles: 6, RecordsPerFile: 128, MeanRecordBytes: 984,
		RecordBytesStddevFrac: 0.01, DecodeAmplification: 1}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := connector.FromSimFS(simfs.New(simfs.Device{Name: "host-slow", TotalBandwidth: 1e6, PerStreamBandwidth: 1e6}, true))
	fs.AddCatalog(cat, 3)
	// The device's bucket starts with a quarter second of bandwidth.
	for _, path := range fs.List()[:2] {
		r, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r)
		r.Close()
	}
	g := pipeline.NewBuilder().Named("src").Interleave(cat.Name, 1).Named("batch").Batch(16).MustBuild()
	arb := host.NewArbiter(plan.Budget{Cores: 2})
	start := time.Now()
	dec, err := arb.Add(host.Tenant{Name: "slow", Graph: g, Source: fs, DiskBandwidth: 1e6})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TracesUsed != 1 {
		t.Fatalf("admission used %d traces, want 1", dec.TracesUsed)
	}
	if got := dec.Shares[0].ObservedMinibatchesPerSec; math.Abs(got-62.5) > 6.25 {
		t.Errorf("the planning trace observed %.1f minibatches/s, want the device's 62.5", got)
	}
	if epoch := 768 * time.Millisecond; took > epoch/2 {
		t.Errorf("admission took %v of a %v epoch: the planning trace did not stop when its rate settled", took, epoch)
	}
	// The share says what that trace cost, and that it settled on the records
	// into the tenant's batch: more samples than minibatches.
	run := dec.Shares[0].Run
	if !run.Settled || int64(run.Samples) <= run.RootCompletions || run.Seconds <= 0 || run.Seconds > took.Seconds() {
		t.Errorf("the planning trace cost %+v of an admission of %v; want it settled on samples of the batch's input", run, took)
	}
}
