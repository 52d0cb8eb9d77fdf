package host_test

import (
	"math"
	"testing"

	"plumber/internal/host"
	"plumber/internal/plan"
	"plumber/internal/scenario"
)

// TestRunConcurrentMeasuresSharesUnderContention runs an arbitrated
// two-tenant mix simultaneously on one shared pool and checks that the
// report is internally consistent: every tenant drains, the aggregate sums
// the per-tenant rates, pool accounting attributes the held core-seconds,
// and the per-tenant traces come back independently attributable.
func TestRunConcurrentMeasuresSharesUnderContention(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 4, MemoryBytes: 32 << 20})
	if _, err := arb.Add(tenantFor(t, "vision", "vision", 1)); err != nil {
		t.Fatal(err)
	}
	dec, err := arb.Add(tenantFor(t, "tiny-files", "tiny", 1))
	if err != nil {
		t.Fatal(err)
	}

	rep, err := arb.RunConcurrent(dec, host.RunOptions{Spin: true, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("%d measured shares, want 2", len(rep.Tenants))
	}
	var aggregate, heldFrac float64
	for _, ms := range rep.Tenants {
		if ms.Minibatches <= 0 || ms.MeasuredMinibatchesPerSec <= 0 {
			t.Fatalf("tenant %q drained nothing under contention: %+v", ms.Tenant, ms)
		}
		if ms.PeakWorkers > rep.Budget.Cores {
			t.Fatalf("tenant %q peak workers %d exceed the %d-core pool", ms.Tenant, ms.PeakWorkers, rep.Budget.Cores)
		}
		if ms.HeldCoreSeconds <= 0 {
			t.Fatalf("tenant %q held no core time", ms.Tenant)
		}
		aggregate += ms.MeasuredMinibatchesPerSec
		heldFrac += ms.HeldShareFraction

		snap, ok := rep.Snapshots[ms.Tenant]
		if !ok {
			t.Fatalf("no snapshot for tenant %q", ms.Tenant)
		}
		if snap.Tenant != ms.Tenant {
			t.Fatalf("snapshot tenant label %q, want %q", snap.Tenant, ms.Tenant)
		}
		root, err := snap.RootStats()
		if err != nil {
			t.Fatal(err)
		}
		if root.ElementsProduced != ms.Minibatches {
			t.Fatalf("tenant %q trace counted %d minibatches, drain saw %d — traces are not attributable",
				ms.Tenant, root.ElementsProduced, ms.Minibatches)
		}
	}
	if math.Abs(aggregate-rep.MeasuredAggregateMinibatchesPerSec) > 1e-9 {
		t.Fatalf("aggregate %.3f != sum of tenants %.3f", rep.MeasuredAggregateMinibatchesPerSec, aggregate)
	}
	if math.Abs(heldFrac-1) > 1e-6 {
		t.Fatalf("held share fractions sum to %.4f, want 1", heldFrac)
	}
	if rep.WallSeconds <= 0 {
		t.Fatal("run reported no wallclock")
	}

	// A nil decision re-arbitrates internally; an empty arbiter refuses.
	if _, err := arb.RunConcurrent(nil, host.RunOptions{}); err != nil {
		t.Fatalf("nil-decision run: %v", err)
	}
	empty := host.NewArbiter(plan.Budget{Cores: 2})
	if _, err := empty.RunConcurrent(nil, host.RunOptions{}); err == nil {
		t.Fatal("empty arbiter ran")
	}
}

// TestArbiterMemorySplitFollowsCacheBenefit pins the cache-fit fix: memory
// is granted to the tenant whose cache actually fits and benefits, not
// split blindly by weight. The "small" tenant's materialization (~2 MiB)
// fits the 4 MiB envelope but NOT a raw half split; the "big" tenant's
// (~32 MiB) can never fit. Weight-proportional splitting would waste both
// slices; the benefit-driven split must give small enough to cache.
func TestArbiterMemorySplitFollowsCacheBenefit(t *testing.T) {
	small := scenario.Spec{
		Name: "mem-small", Files: 4, RecordsPerFile: 64, MeanRecordBytes: 4 << 10,
		DecodeAmplification: 2, DecodeCPUPerByte: 5e-9, BatchSize: 8,
	}
	big := scenario.Spec{
		Name: "mem-big", Files: 4, RecordsPerFile: 256, MeanRecordBytes: 16 << 10,
		DecodeAmplification: 2, DecodeCPUPerByte: 5e-9, BatchSize: 8,
	}
	tenant := func(spec scenario.Spec) host.Tenant {
		w, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return host.Tenant{
			Name: spec.Name, Weight: 1, Graph: w.Graph, Source: w.Source, UDFs: w.Registry,
			Seed: spec.Seed, WorkScale: 1,
		}
	}

	arb := host.NewArbiter(plan.Budget{Cores: 4, MemoryBytes: 4 << 20})
	if _, err := arb.Add(tenant(small)); err != nil {
		t.Fatal(err)
	}
	dec, err := arb.Add(tenant(big))
	if err != nil {
		t.Fatal(err)
	}

	var smallShare, bigShare host.Share
	for _, s := range dec.Shares {
		switch s.Tenant {
		case "mem-small":
			smallShare = s
		case "mem-big":
			bigShare = s
		}
	}
	if smallShare.Plan == nil || smallShare.Plan.CacheAbove == "" {
		t.Fatalf("small tenant planned no cache under its %d-byte slice — its fitting cache was starved",
			smallShare.Budget.MemoryBytes)
	}
	// The fix's defining property: small's slice exceeds the raw weight
	// split (half of 4 MiB), because big's unusable slice was ceded to it.
	if half := int64(2 << 20); smallShare.Budget.MemoryBytes <= half {
		t.Fatalf("small got %d bytes, no more than the raw half split %d — memory still splits by weight",
			smallShare.Budget.MemoryBytes, half)
	}
	if bigShare.Budget.MemoryBytes >= smallShare.Budget.MemoryBytes {
		t.Fatalf("big (unfittable cache) got %d bytes >= small's %d",
			bigShare.Budget.MemoryBytes, smallShare.Budget.MemoryBytes)
	}
	if total := smallShare.Budget.MemoryBytes + bigShare.Budget.MemoryBytes; total > 4<<20 {
		t.Fatalf("memory slices sum to %d, envelope is %d", total, 4<<20)
	}
}
