package host

import (
	"sync/atomic"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/stats"
	"plumber/internal/udf"
)

// decodeCost is the spin tenants' decode CPU per record, modeled and, with
// Spin, burned before each call of the UDF body.
const decodeCost = 400e-6

// bodyHold is how long a call of the UDF body holds its worker off the CPU:
// long enough that two map workers holding a slot each overlap on one P too.
const bodyHold = 100 * time.Microsecond

// overlap counts a UDF body's calls and the most of them in flight at once,
// among calls that started after arm.
type overlap struct {
	calls, active, peak atomic.Int64
	armed               atomic.Bool
}

func (o *overlap) arm() { o.armed.Store(true) }

// reset forgets the planning trace's calls.
func (o *overlap) reset() {
	o.calls.Store(0)
	o.peak.Store(0)
	o.armed.Store(false)
}

func (o *overlap) call() {
	n := o.active.Add(1)
	if o.armed.Load() {
		for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
		}
	}
	time.Sleep(bodyHold)
	o.active.Add(-1)
	o.calls.Add(1)
}

// spinTenant is a source → decode → batch tenant over its own device, whose
// decode spins decodeCost per record and reports its body's calls to o.
// After each call, after(n) runs, n the calls so far.
func spinTenant(t *testing.T, name string, records int, o *overlap, after func(n int64)) Tenant {
	t.Helper()
	cat := data.Catalog{Name: "wide-" + name, NumFiles: 4, RecordsPerFile: records / 4, MeanRecordBytes: 1024, DecodeAmplification: 1}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := connector.NewMem("wide-" + name)
	fs.AddCatalog(cat, 5)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "decode",
		Body: func(e data.Element) (data.Element, bool, error) {
			o.call()
			if after != nil {
				after(o.calls.Load())
			}
			return e, true, nil
		},
		Cost: udf.Cost{CPUPerElement: decodeCost, SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	g := pipeline.NewBuilder().Interleave(cat.Name, 1).Map("decode", 1).Batch(8).MustBuild()
	return Tenant{Name: name, Weight: 1, Graph: g, Source: fs, UDFs: reg, Seed: 5, WorkScale: 1, Spin: true}
}

// TestSharesRunPoolWidePrograms: two spin tenants on a 2-core pool are each
// guaranteed one core, with the cache the guarantee's solve places, but
// their decode is sized for both cores, and each is predicted at its
// guarantee. Run together, the longer tenant decodes on both cores once the
// shorter one's decoding is done.
func TestSharesRunPoolWidePrograms(t *testing.T) {
	var long, short overlap
	const shortRecords = 64
	a := NewArbiter(plan.Budget{Cores: 2, MemoryBytes: 64 << 20})
	dec, err := a.Add(
		spinTenant(t, "long", 8*shortRecords, &long, nil),
		spinTenant(t, "short", shortRecords, &short, func(n int64) {
			if n == shortRecords {
				long.arm()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range dec.Shares {
		if s.Budget.Cores != 1 {
			t.Fatalf("tenant %s guaranteed %d cores, want 1 of 2", s.Tenant, s.Budget.Cores)
		}
		guarantee, err := plan.Solve(a.tenants[i].analysis, s.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if s.Plan.CacheAbove == "" || s.Plan.CacheAbove != guarantee.CacheAbove || s.Plan.CacheBytes != guarantee.CacheBytes {
			t.Errorf("tenant %s caches %.0f B above %q, its guarantee's solve %.0f B above %q",
				s.Tenant, s.Plan.CacheBytes, s.Plan.CacheAbove, guarantee.CacheBytes, guarantee.CacheAbove)
		}
		if p := s.Plan.Parallelism["map_1"]; p != 2 || guarantee.Parallelism["map_1"] != 1 {
			t.Errorf("tenant %s decodes at %d, at %d on its guarantee; want 2 and 1", s.Tenant, p, guarantee.Parallelism["map_1"])
		}
		if n, err := s.Program.Node("map_1"); err != nil || n.EffectiveParallelism() != s.Plan.Parallelism["map_1"] {
			t.Errorf("tenant %s program decodes at %v, plan at %d (%v)", s.Tenant, n, s.Plan.Parallelism["map_1"], err)
		}
		if want := stats.FiniteOrZero(guarantee.PredictedFillMinibatchesPerSec); s.PredictedMinibatchesPerSec != want {
			t.Errorf("tenant %s predicted %.1f minibatches/s, its guarantee's solve %.1f", s.Tenant, s.PredictedMinibatchesPerSec, want)
		}
	}

	long.reset()
	short.reset()
	rep, err := a.RunConcurrent(dec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range rep.Tenants {
		if ms.Status != StatusOK {
			t.Fatalf("tenant %s finished %s: %s", ms.Tenant, ms.Status, ms.Failure)
		}
		if ms.PeakWorkers > 2 {
			t.Fatalf("tenant %s held %d slots of 2", ms.Tenant, ms.PeakWorkers)
		}
	}
	if got := long.calls.Load(); got != 8*shortRecords {
		t.Fatalf("long decoded %d records, want %d", got, 8*shortRecords)
	}
	if got := long.peak.Load(); got != 2 {
		t.Fatalf("long ran %d decodes at once after short's last, want 2: the core short left idled", got)
	}
}

// TestRunConcurrentSurvivorUsesReclaimedCores: one of two spin tenants on a
// 2-core pool fails at its first read. Its core is reclaimed and re-granted
// (Grow) to the survivor, whose pool-wide program decodes on both cores.
func TestRunConcurrentSurvivorUsesReclaimedCores(t *testing.T) {
	var survivor, victim overlap
	a := NewArbiter(plan.Budget{Cores: 2, MemoryBytes: 64 << 20})
	victimTenant := spinTenant(t, "victim", 64, &victim, nil)
	dec, err := a.Add(spinTenant(t, "survivor", 256, &survivor, nil), victimTenant)
	if err != nil {
		t.Fatal(err)
	}
	// Faults go in only after arbitration, so planning traced a healthy FS.
	victimTenant.Source.SetFaults(&connector.FaultPlan{Rules: []connector.FaultRule{
		{Name: "dead-device", ErrorRate: 1, Permanent: true},
	}})
	survivor.reset()
	survivor.arm()
	rep, err := a.RunConcurrent(dec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reclaims) != 1 || rep.Reclaims[0].Tenant != "victim" || rep.Reclaims[0].Regrants["survivor"] != 1 {
		t.Fatalf("reclaims %+v, want victim's one core re-granted to the survivor", rep.Reclaims)
	}
	if st := rep.Tenants[0]; st.Status != StatusOK || st.Minibatches != 256/8 {
		t.Fatalf("survivor finished %s with %d minibatches (%s), want ok with 32", st.Status, st.Minibatches, st.Failure)
	}
	if got := survivor.peak.Load(); got != 2 {
		t.Fatalf("survivor ran %d decodes at once with the whole pool its own, want 2", got)
	}
}
