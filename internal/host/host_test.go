package host_test

import (
	"encoding/json"
	"testing"

	"plumber/internal/host"
	"plumber/internal/plan"
	"plumber/internal/scenario"
)

// tenantFor builds a scenario workload as an arbiter tenant.
func tenantFor(t *testing.T, specName, tenantName string, weight float64) host.Tenant {
	t.Helper()
	for _, s := range scenario.Suite(true) {
		if s.Name != specName {
			continue
		}
		w, err := scenario.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		return host.Tenant{
			Name:          tenantName,
			Weight:        weight,
			Graph:         w.Graph,
			Source:        w.Source,
			UDFs:          w.Registry,
			Seed:          s.Seed,
			WorkScale:     1,
			DiskBandwidth: w.DiskBandwidth,
		}
	}
	t.Fatalf("no scenario %q", specName)
	return host.Tenant{}
}

func TestArbiterSplitsCoresByMarginalValue(t *testing.T) {
	// Vision minibatches are weighted 10x: its per-core marginal rate is
	// lower in raw minibatch units (each minibatch costs far more CPU), so
	// only the weight makes the CPU-hungry tenant the higher bidder —
	// exactly what tenant weights exist to express.
	arb := host.NewArbiter(plan.Budget{Cores: 8, MemoryBytes: 64 << 20})
	if _, err := arb.Add(tenantFor(t, "vision", "vision-a", 10)); err != nil {
		t.Fatal(err)
	}
	dec, err := arb.Add(tenantFor(t, "tiny-files", "tiny-b", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shares) != 2 {
		t.Fatalf("%d shares, want 2", len(dec.Shares))
	}
	total := 0
	var vision, tiny host.Share
	for _, s := range dec.Shares {
		total += s.Budget.Cores
		// A program is sized for the whole pool; the pool holds it to its share.
		if s.Plan.CoresPlanned > dec.Budget.Cores {
			t.Fatalf("tenant %q plan claims %d cores, the pool has %d", s.Tenant, s.Plan.CoresPlanned, dec.Budget.Cores)
		}
		if err := s.Program.Validate(); err != nil {
			t.Fatalf("tenant %q program invalid: %v", s.Tenant, err)
		}
		switch s.Tenant {
		case "vision-a":
			vision = s
		case "tiny-b":
			tiny = s
		}
	}
	if total > 8 {
		t.Fatalf("shares claim %d cores, budget 8", total)
	}
	// The decode-heavy vision tenant has far higher marginal value per core
	// than the metadata-bound tiny-file tenant.
	if vision.Budget.Cores <= tiny.Budget.Cores {
		t.Fatalf("vision got %d cores, tiny %d — want the CPU-hungry tenant favored",
			vision.Budget.Cores, tiny.Budget.Cores)
	}
	// Water-filling maximizes the weighted aggregate, and the even split is
	// one of its feasible points.
	if dec.PredictedWeightedAggregate < dec.EvenSplitPredictedWeightedAggregate*0.999 {
		t.Fatalf("arbitrated weighted aggregate %.1f below even-split baseline %.1f",
			dec.PredictedWeightedAggregate, dec.EvenSplitPredictedWeightedAggregate)
	}
	// One planning trace per tenant, ever.
	if dec.TracesUsed != 2 {
		t.Fatalf("traces used = %d, want 2 (one per tenant)", dec.TracesUsed)
	}
	if _, err := json.Marshal(dec); err != nil {
		t.Fatalf("decision not serializable: %v", err)
	}
}

func TestArbiterWeightsBias(t *testing.T) {
	// Two identical tenants with asymmetric weights: the heavier one must
	// receive at least as many cores. They are admitted together, so both
	// traces read the host under the same load. Each trace is 24 minibatches
	// and a few milliseconds, and one the host preempts mid-stage reads a
	// third of its twin's rate and a flat rate curve: the pair is then no
	// longer identical, and is measured again.
	for attempt := 1; ; attempt++ {
		dec, err := host.NewArbiter(plan.Budget{Cores: 6}).Add(
			tenantFor(t, "vision", "heavy", 3), tenantFor(t, "vision", "light", 1))
		if err != nil {
			t.Fatal(err)
		}
		heavy, light := dec.Shares[0], dec.Shares[1]
		if r := heavy.ObservedMinibatchesPerSec / light.ObservedMinibatchesPerSec; attempt < 5 && (r < 0.5 || r > 2) {
			continue
		}
		if heavy.Budget.Cores < light.Budget.Cores {
			t.Fatalf("heavy (w=3) got %d cores, light (w=1) got %d", heavy.Budget.Cores, light.Budget.Cores)
		}
		return
	}
}

func TestArbiterReArbitratesOnAddRemove(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 8, MemoryBytes: 32 << 20})
	if _, err := arb.Add(tenantFor(t, "vision", "a", 1)); err != nil {
		t.Fatal(err)
	}
	two, err := arb.Add(tenantFor(t, "nlp", "b", 1))
	if err != nil {
		t.Fatal(err)
	}
	three, err := arb.Add(tenantFor(t, "skewed", "c", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Shares) != 3 {
		t.Fatalf("%d shares after third admit, want 3", len(three.Shares))
	}
	if three.TracesUsed != 3 {
		t.Fatalf("traces used = %d, want 3 — incumbents must not be re-traced", three.TracesUsed)
	}
	total := 0
	for _, s := range three.Shares {
		total += s.Budget.Cores
	}
	if total > 8 {
		t.Fatalf("three-way shares claim %d cores, budget 8", total)
	}

	after, err := arb.Remove("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Shares) != 2 {
		t.Fatalf("%d shares after eviction, want 2", len(after.Shares))
	}
	if after.TracesUsed != 3 {
		t.Fatalf("eviction re-traced: %d traces used", after.TracesUsed)
	}
	// Re-arbitration redistributes the evicted tenant's cores.
	for i, s := range after.Shares {
		if s.Budget.Cores < two.Shares[i].Budget.Cores {
			t.Fatalf("tenant %q shrank from %d to %d cores after an eviction",
				s.Tenant, two.Shares[i].Budget.Cores, s.Budget.Cores)
		}
	}

	// Duplicate admits and unknown evictions fail loudly.
	if _, err := arb.Add(tenantFor(t, "vision", "a", 1)); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	if _, err := arb.Remove("nope"); err == nil {
		t.Fatal("unknown tenant evicted")
	}
}

// TestArbiterClampsShareToTenantDiskCeiling pins the per-tenant disk cap:
// a bandwidth-starved tenant must be priced against its own device, not
// the unbounded (or weight-split) global envelope, or water-filling would
// grant it cores its disk cannot feed.
func TestArbiterClampsShareToTenantDiskCeiling(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 8, MemoryBytes: 0})
	cold := tenantFor(t, "cold-storage", "cold", 1)
	if cold.DiskBandwidth <= 0 {
		t.Fatal("cold-storage tenant carries no disk ceiling")
	}
	if _, err := arb.Add(cold); err != nil {
		t.Fatal(err)
	}
	dec, err := arb.Add(tenantFor(t, "vision", "vision", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dec.Shares {
		if s.Tenant != "cold" {
			continue
		}
		if s.Budget.DiskBandwidth != cold.DiskBandwidth {
			t.Fatalf("cold share disk = %.0f, want clamped to the tenant's %.0f ceiling",
				s.Budget.DiskBandwidth, cold.DiskBandwidth)
		}
	}
}

func TestArbiterRejectsOversubscription(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 1})
	if _, err := arb.Add(tenantFor(t, "vision", "a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.Add(tenantFor(t, "nlp", "b", 1)); err == nil {
		t.Fatal("second tenant admitted on a 1-core budget")
	}
}
