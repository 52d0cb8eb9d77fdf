package host_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/host"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/simfs"
	"plumber/internal/udf"
)

// TestAddBatchMatchesOneByOne: admitting tenants together arbitrates them
// as admitting them one after another does — the same cores, disk slice and
// program for every share — at one trace per tenant. The local-files
// tenant's trace times real file reads, and under the race detector its
// solo admissions alone disagree now and then on its cores, so a mismatch is
// measured again before it fails.
func TestAddBatchMatchesOneByOne(t *testing.T) {
	cases := []struct {
		name    string
		budget  plan.Budget
		tenants []host.Tenant
	}{
		{"vision+tiny-files", plan.Budget{Cores: 8, MemoryBytes: 64 << 20},
			[]host.Tenant{tenantFor(t, "vision", "vision", 10), tenantFor(t, "tiny-files", "tiny", 1)}},
		{"mixed-backend", plan.Budget{Cores: 8, DiskBandwidth: 200e6}, mixedTenants(t)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var diff string
			for attempt := 0; attempt < 5; attempt++ {
				one := host.NewArbiter(c.budget)
				var want *host.Decision
				for _, tn := range c.tenants {
					var err error
					if want, err = one.Add(tn); err != nil {
						t.Fatal(err)
					}
				}
				got, err := host.NewArbiter(c.budget).Add(c.tenants...)
				if err != nil {
					t.Fatal(err)
				}
				if got.TracesUsed != len(c.tenants) {
					t.Fatalf("batch admission used %d traces, want %d", got.TracesUsed, len(c.tenants))
				}
				if diff = decisionDiff(got, want); diff == "" {
					return
				}
			}
			t.Fatal(diff)
		})
	}
}

// decisionDiff describes the first share where the batch decision got and
// the one-by-one decision want disagree; "" when they agree.
func decisionDiff(got, want *host.Decision) string {
	if len(got.Shares) != len(want.Shares) {
		return fmt.Sprintf("batch: %d shares, one by one: %d", len(got.Shares), len(want.Shares))
	}
	for i, w := range want.Shares {
		g := got.Shares[i]
		if g.Tenant != w.Tenant || g.Budget.Cores != w.Budget.Cores || g.Budget.DiskBandwidth != w.Budget.DiskBandwidth {
			return fmt.Sprintf("share %d: batch %s %d cores %.0f B/s, one by one %s %d cores %.0f B/s",
				i, g.Tenant, g.Budget.Cores, g.Budget.DiskBandwidth, w.Tenant, w.Budget.Cores, w.Budget.DiskBandwidth)
		}
		gp, _ := json.Marshal(g.Program)
		wp, _ := json.Marshal(w.Program)
		if g.Plan.CacheAbove != w.Plan.CacheAbove || string(gp) != string(wp) {
			return fmt.Sprintf("tenant %s: batch program (cache above %q)\n%s\none by one (cache above %q)\n%s",
				g.Tenant, g.Plan.CacheAbove, gp, w.Plan.CacheAbove, wp)
		}
	}
	return ""
}

// TestAddBatchSharedStore: two tenants reading one filesystem — distinct
// catalogs, then one catalog — are traced one after the other, and plan the
// same cache as each does admitted alone. Both run a UDF that records how
// many of its calls overlap.
func TestAddBatchSharedStore(t *testing.T) {
	fs := connector.FromSimFS(simfs.New(simfs.Device{Name: "batch-shared"}, false))
	for _, name := range []string{"batch-shared-a", "batch-shared-b"} {
		cat := data.Catalog{Name: name, NumFiles: 2, RecordsPerFile: 16, MeanRecordBytes: 512, DecodeAmplification: 1}
		if err := data.RegisterCatalog(cat); err != nil {
			t.Fatal(err)
		}
		fs.AddCatalog(cat, 5)
	}
	var active, peak atomic.Int32
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "overlap",
		Body: func(e data.Element) (data.Element, bool, error) {
			n := active.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
			return e, true, nil
		},
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	tenant := func(name, catalog string) host.Tenant {
		g := pipeline.NewBuilder().Interleave(catalog, 1).Map("overlap", 1).Batch(8).MustBuild()
		return host.Tenant{Name: name, Weight: 1, Graph: g, Source: fs, UDFs: reg, Seed: 5, WorkScale: 1}
	}
	for _, cats := range [][2]string{{"batch-shared-a", "batch-shared-b"}, {"batch-shared-a", "batch-shared-a"}} {
		ts := []host.Tenant{tenant("a", cats[0]), tenant("b", cats[1])}
		var solo []host.Share
		for _, tn := range ts {
			dec, err := host.NewArbiter(plan.Budget{Cores: 1, MemoryBytes: 64 << 20}).Add(tn)
			if err != nil {
				t.Fatal(err)
			}
			solo = append(solo, dec.Shares[0])
		}
		peak.Store(0)
		dec, err := host.NewArbiter(plan.Budget{Cores: 2, MemoryBytes: 64 << 20}).Add(ts...)
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > 1 {
			t.Errorf("catalogs %v: %d traces of one store ran at once", cats, p)
		}
		for i, want := range solo {
			got := dec.Shares[i].Plan
			if want.Plan.CacheAbove == "" {
				t.Fatalf("catalogs %v: tenant %s plans no cache alone", cats, want.Tenant)
			}
			if got.CacheAbove != want.Plan.CacheAbove || got.CacheBytes != want.Plan.CacheBytes {
				t.Errorf("catalogs %v: tenant %s caches %.0f B above %q admitted together, %.0f B above %q alone",
					cats, want.Tenant, got.CacheBytes, got.CacheAbove, want.Plan.CacheBytes, want.Plan.CacheAbove)
			}
		}
	}
}

// TestAddBatchFailingTrace: one tenant's trace fails (its graph names a UDF
// its registry lacks). Add says which tenant, admits nobody, stops the
// sibling's trace instead of letting it run on to settle, leaves no
// goroutine behind, and the arbiter admits tenants afterwards.
func TestAddBatchFailingTrace(t *testing.T) {
	cat := data.Catalog{Name: "batch-failing", NumFiles: 4, RecordsPerFile: 64, MeanRecordBytes: 512, DecodeAmplification: 1}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "slow",
		Body: func(e data.Element) (data.Element, bool, error) {
			calls.Add(1)
			time.Sleep(20 * time.Millisecond)
			return e, true, nil
		},
		Cost: udf.Cost{SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	tenant := func(name, fn string) host.Tenant {
		fs := connector.NewMem(name)
		fs.AddCatalog(cat, 7)
		g := pipeline.NewBuilder().Interleave(cat.Name, 1).Map(fn, 1).Batch(4).MustBuild()
		return host.Tenant{Name: name, Weight: 1, Graph: g, Source: fs, UDFs: reg, Seed: 7, WorkScale: 1}
	}

	baseline := runtime.NumGoroutine()
	arb := host.NewArbiter(plan.Budget{Cores: 2})
	_, err := arb.Add(tenant("bad", "no-such-udf"), tenant("sibling", "slow"))
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("Add = %v, want the failing tenant named", err)
	}
	// Settling takes a dozen of the sibling's 20 ms elements; a wave of one
	// (GOMAXPROCS 1) never starts it.
	if n := calls.Load(); n >= 12 {
		t.Errorf("the sibling's trace ran on for %d elements after the failure", n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed admission, %d before", runtime.NumGoroutine(), baseline)
		}
	}
	dec, err := arb.Add(tenantFor(t, "tiny-files", "sibling", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shares) != 1 || dec.TracesUsed != 1 {
		t.Fatalf("after the failed batch: %d shares, %d traces; want 1, 1", len(dec.Shares), dec.TracesUsed)
	}
}
