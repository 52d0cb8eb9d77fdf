package engine

import (
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// TestSharedPoolAdmission pins the admission contract: guarantees must fit
// the capacity, names must be unique, and unadmitted tenants panic.
func TestSharedPoolAdmission(t *testing.T) {
	p := NewSharedPool(4)
	if err := p.Admit("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit("a", 1); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	if err := p.Admit("b", 2); err == nil {
		t.Fatal("guarantees 3+2 admitted on capacity 4")
	}
	if err := p.Admit("b", 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire for unadmitted tenant did not panic")
		}
	}()
	p.Acquire("nobody", nil)
}

// TestSharedPoolBorrowAndGuaranteePriority drives the pool directly:
// an active tenant borrows the idle tenant's slots (work conservation),
// and when the idle tenant resumes, its guaranteed acquisition is admitted
// ahead of any further borrowing — borrowed cores are returned.
func TestSharedPoolBorrowAndGuaranteePriority(t *testing.T) {
	p := NewSharedPool(4)
	if err := p.Admit("big", 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit("small", 1); err != nil {
		t.Fatal(err)
	}

	// small is idle: big borrows its way to the full capacity.
	var rel []func()
	for i := 0; i < 4; i++ {
		r, ok := p.Acquire("big", nil)
		if !ok {
			t.Fatalf("acquire %d aborted", i)
		}
		rel = append(rel, r)
	}
	st := p.Stats()
	if st[0].InFlight != 4 || st[0].PeakWorkers != 4 {
		t.Fatalf("big in-flight=%d peak=%d, want 4/4 (borrowing)", st[0].InFlight, st[0].PeakWorkers)
	}
	if st[0].Borrows != 1 {
		t.Fatalf("big borrows=%d, want 1 (only the 4th slot exceeded the share)", st[0].Borrows)
	}

	// small resumes: its guaranteed acquire must block (pool full) and then
	// win the very next released slot, even though big keeps bidding.
	got := make(chan func(), 1)
	go func() {
		r, ok := p.Acquire("small", nil)
		if !ok {
			t.Error("small acquire aborted")
			return
		}
		got <- r
	}()
	// Wait until small's waiter is blocked, so big's release below races
	// nothing.
	waitBlocked(t, p, "small", 1)
	rel[3]() // big returns the borrowed slot
	select {
	case r := <-got:
		defer r()
	case <-time.After(2 * time.Second):
		t.Fatal("small's guaranteed acquire was not admitted after a release")
	}

	// Pool is full again (big 3 + small 1); a further borrow attempt by big
	// must abort cleanly on its done channel rather than being admitted.
	done := make(chan struct{})
	aborted := make(chan bool, 1)
	go func() {
		_, ok := p.Acquire("big", done)
		aborted <- !ok
	}()
	time.Sleep(10 * time.Millisecond)
	close(done)
	p.Interrupt()
	if !<-aborted {
		t.Fatal("borrow beyond capacity was admitted")
	}
	for _, r := range rel[:3] {
		r()
	}
}

// poolCounts reads a tenant's blocked and in-flight worker counts.
func poolCounts(p *SharedPool, tenant string) (waiting, inflight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tenants[tenant]
	return t.waiting, t.inflight
}

// waitBlocked waits until n of the tenant's workers are blocked in Acquire.
func waitBlocked(t *testing.T, p *SharedPool, tenant string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if w, _ := poolCounts(p, tenant); w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of tenant %s's workers never blocked in Acquire", n, tenant)
		}
	}
}

// acquireAsync starts an Acquire for tenant and returns where its release
// arrives once it is admitted.
func acquireAsync(p *SharedPool, tenant string) <-chan func() {
	got := make(chan func(), 1)
	go func() {
		if r, ok := p.Acquire(tenant, nil); ok {
			got <- r
		}
	}()
	return got
}

// TestSharedPoolFreedSlotGoesToItsGuarantee: a and b each hold their one
// guaranteed slot of two. A second a worker blocked while a was at its
// share, and a second b worker blocked wanting to borrow. When a's slot
// frees, a is below its guarantee with a worker waiting, so that worker is
// admitted and b's borrower stays blocked, whichever of the two the release
// wakes first. The blocking order alternates, so each is first half the time.
func TestSharedPoolFreedSlotGoesToItsGuarantee(t *testing.T) {
	for rep := 0; rep < 200; rep++ {
		p := NewSharedPool(2)
		if err := p.Admit("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := p.Admit("b", 1); err != nil {
			t.Fatal(err)
		}
		relA, _ := p.Acquire("a", nil)
		relB, _ := p.Acquire("b", nil)
		var gotA, gotB <-chan func()
		if rep%2 == 0 {
			gotA = acquireAsync(p, "a")
			waitBlocked(t, p, "a", 1)
			gotB = acquireAsync(p, "b")
			waitBlocked(t, p, "b", 1)
		} else {
			gotB = acquireAsync(p, "b")
			waitBlocked(t, p, "b", 1)
			gotA = acquireAsync(p, "a")
			waitBlocked(t, p, "a", 1)
		}
		relA()
		var relA2 func()
		select {
		case relA2 = <-gotA:
		case r := <-gotB:
			r()
			<-gotA
			t.Fatalf("rep %d: b's borrower took the slot a's guarantee was owed", rep)
		case <-time.After(5 * time.Second):
			t.Fatalf("rep %d: nobody was admitted to the freed slot", rep)
		}
		if w, in := poolCounts(p, "b"); w != 1 || in != 1 {
			t.Fatalf("rep %d: b has %d blocked and %d in flight, want 1 and 1", rep, w, in)
		}
		relA2() // a is idle now: b's borrower gets the slot
		(<-gotB)()
		relB()
	}
}

// TestSlotYieldOnlyWhenBorrowing: a chunk-boundary yield gives the slot back
// only when its tenant holds more slots than its guarantee. Within its
// share, the yield lets no borrower in, even with the window a release
// would open held wide; over its share, the yield hands the slot to a
// guaranteed waiter and waits for room again.
func TestSlotYieldOnlyWhenBorrowing(t *testing.T) {
	p := NewSharedPool(2)
	if err := p.Admit("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit("b", 1); err != nil {
		t.Fatal(err)
	}

	// a holds its one guaranteed slot, b holds its own, and a second b
	// worker waits to borrow.
	sa := slot{pool: p, tenant: "a"}
	if !sa.acquire() {
		t.Fatal("a's acquire aborted")
	}
	relB, _ := p.Acquire("b", nil)
	gotB := acquireAsync(p, "b")
	waitBlocked(t, p, "b", 1)
	rel := sa.rel
	sa.rel = func() {
		rel()
		// Hold the released slot open until the borrower takes it.
		for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			if _, in := poolCounts(p, "b"); in == 2 {
				return
			}
		}
	}
	yielded := make(chan bool, 1)
	for i := 0; i < 3; i++ {
		go func() { yielded <- sa.yield() }()
		select {
		case ok := <-yielded:
			if !ok {
				t.Fatal("a's yield within its share aborted")
			}
		case r := <-gotB:
			r() // let a's re-acquire through before failing
			<-yielded
			t.Fatal("a yielded its guaranteed slot to b's borrower")
		}
	}
	if w, in := poolCounts(p, "b"); w != 1 || in != 1 {
		t.Fatalf("b has %d blocked and %d in flight, want 1 and 1", w, in)
	}
	sa.rel = rel
	sa.release() // b's borrower takes a's slot
	relB2 := <-gotB
	relB()
	relB2()

	// a borrows b's slot too; then b resumes, and its worker blocks owed its
	// guarantee. A yield of a's borrowed slot must hand it over.
	if !sa.acquire() {
		t.Fatal("a's acquire aborted")
	}
	relA2, _ := p.Acquire("a", nil)
	gotB = acquireAsync(p, "b")
	waitBlocked(t, p, "b", 1)
	go func() { yielded <- sa.yield() }()
	select {
	case relB = <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatal("a's yield over its share did not let b's guaranteed waiter in")
	}
	waitBlocked(t, p, "a", 1) // the yield's re-acquire waits for room
	relB()
	if !<-yielded {
		t.Fatal("a's yield aborted")
	}
	sa.release()
	relA2()
}

// poolWorkload builds a spin-heavy two-stage pipeline whose map UDF costs
// cpuPerElem seconds, over its own private filesystem.
func poolWorkload(t *testing.T, name string, par int, cpuPerElem float64, records int) (*pipeline.Graph, Options) {
	t.Helper()
	cat := data.Catalog{
		Name:                  "pool-" + name,
		NumFiles:              4,
		RecordsPerFile:        records / 4,
		MeanRecordBytes:       512,
		RecordBytesStddevFrac: 0.2,
		DecodeAmplification:   1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := connector.NewMem("pool-mem-" + name)
	fs.AddCatalog(cat, 11)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "pool_spin",
		Cost: udf.Cost{CPUPerElement: cpuPerElem, SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.NewBuilder().
		Interleave(cat.Name, par).
		Map("pool_spin", par).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, Options{
		FS: fs, UDFs: reg, WorkScale: 1, Spin: true, Seed: 11,
		// Small chunks keep preemption latency low relative to the test's
		// short run, so shares converge quickly.
		ChunkSize: 8,
	}
}

// TestConcurrentTenantsReceiveArbitratedShares is the shared-pool
// accounting test: two spin-heavy tenants with a 3:1 worker-share split run
// simultaneously on one pool, and each must receive (in held core-seconds)
// within tolerance of its arbitrated share; afterwards, with one tenant
// idle, the other must borrow beyond its guarantee — and hand the cores
// back when the idle tenant resumes. Run under -race in CI.
func TestConcurrentTenantsReceiveArbitratedShares(t *testing.T) {
	const (
		capacity = 4
		bigShare = 3
		// 2ms of modeled spin per element makes a chunk's slot-hold (~16ms)
		// outlast Go's ~10ms async-preemption interval, so holds genuinely
		// overlap even on a single-core host (the spin deadline is
		// wallclock, so "parallel" slot-holders complete together there).
		cpuCost   = 2e-3
		smallRecs = 40
	)
	pool := NewSharedPool(capacity)
	if err := pool.Admit("big", bigShare); err != nil {
		t.Fatal(err)
	}
	if err := pool.Admit("small", 1); err != nil {
		t.Fatal(err)
	}

	// Workload sized ~3:1 so both tenants stay busy for roughly the whole
	// window; each runs `capacity` workers so the pool, not the worker
	// count, is what limits concurrency.
	bigGraph, bigOpts := poolWorkload(t, "big", capacity, cpuCost, 3*smallRecs)
	smallGraph, smallOpts := poolWorkload(t, "small", capacity, cpuCost, smallRecs)
	bigOpts.Pool, bigOpts.PoolTenant = pool, "big"
	smallOpts.Pool, smallOpts.PoolTenant = pool, "small"

	drain := func(g *pipeline.Graph, o Options, errCh chan<- error) {
		p, err := New(g, o)
		if err != nil {
			errCh <- err
			return
		}
		if _, _, err := p.Drain(0); err != nil {
			p.Close()
			errCh <- err
			return
		}
		errCh <- p.Close()
	}

	// Phase 1: both tenants contend for the whole window.
	errs := make(chan error, 2)
	go drain(bigGraph, bigOpts, errs)
	go drain(smallGraph, smallOpts, errs)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	held := map[string]float64{}
	peak := map[string]int{}
	for _, s := range st {
		held[s.Tenant] = s.HeldSeconds
		peak[s.Tenant] = s.PeakWorkers
		if s.PeakWorkers > capacity {
			t.Fatalf("tenant %s peak %d exceeds pool capacity %d", s.Tenant, s.PeakWorkers, capacity)
		}
	}
	total := held["big"] + held["small"]
	if total <= 0 {
		t.Fatal("no held core-seconds recorded")
	}
	frac := held["big"] / total
	// Expected 0.75 under sustained contention; the tail (whoever finishes
	// first leaves the other borrowing) and chunk granularity blur it, so
	// the tolerance is generous — but a pool that ignored shares entirely
	// would settle near 0.5, well outside it.
	if frac < 0.60 || frac > 0.92 {
		t.Fatalf("big held fraction = %.3f (big %.3fs, small %.3fs), want ~0.75 within [0.60, 0.92]",
			frac, held["big"], held["small"])
	}

	// Phase 2: big is idle, so small — guaranteed only 1 slot — must borrow
	// its way past its share (work conservation).
	pool.ResetStats()
	go drain(smallGraph, smallOpts, errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st = pool.Stats()
	for _, s := range st {
		if s.Tenant == "small" && s.PeakWorkers <= 1 {
			t.Fatalf("small never borrowed with big idle: peak=%d", s.PeakWorkers)
		}
	}

	// Phase 3: big resumes — the borrowed cores must come back: big ends up
	// with the majority share again.
	pool.ResetStats()
	go drain(bigGraph, bigOpts, errs)
	go drain(smallGraph, smallOpts, errs)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	held = map[string]float64{}
	for _, s := range pool.Stats() {
		held[s.Tenant] = s.HeldSeconds
	}
	total = held["big"] + held["small"]
	if total <= 0 {
		t.Fatal("phase 3 recorded no held core-seconds")
	}
	if frac := held["big"] / total; frac < 0.60 {
		t.Fatalf("after resuming, big's held fraction = %.3f — borrowed cores were not returned", frac)
	}
}

// seqPoolWorkload builds a pipeline whose CPU weight sits in consumer-side
// sequential stages — Filter (spin UDF), Shuffle, Batch — rather than in
// parallel map workers, over its own private filesystem. Its slot occupancy
// therefore comes almost entirely through the sequential-admission gate.
func seqPoolWorkload(t *testing.T, name string, par int, cpuPerElem float64, records int) (*pipeline.Graph, Options) {
	t.Helper()
	cat := data.Catalog{
		Name:                  "poolseq-" + name,
		NumFiles:              4,
		RecordsPerFile:        records / 4,
		MeanRecordBytes:       512,
		RecordBytesStddevFrac: 0.2,
		DecodeAmplification:   1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := connector.NewMem("poolseq-mem-" + name)
	fs.AddCatalog(cat, 11)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "pool_seq_spin",
		Cost: udf.Cost{CPUPerElement: cpuPerElem, SizeFactor: 1}, // KeepFraction 1: all records survive
	}); err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.NewBuilder().
		Interleave(cat.Name, par).
		Filter("pool_seq_spin").
		Shuffle(16).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, Options{
		FS: fs, UDFs: reg, WorkScale: 1, Spin: true, Seed: 11,
		ChunkSize: 8,
	}
}

// TestSequentialHeavyTenantHeldToArbitratedShare is the PR-8 admission test:
// a tenant whose CPU lives in filter/shuffle/batch — stages that run on the
// consumer goroutine, which before sequential gating occupied a core without
// ever holding a pool slot — must now be charged and held to its arbitrated
// share against a map-heavy tenant with a 3:1 split. Workloads are sized 3:1
// so both stay busy for the whole window; without sequential admission the
// seq tenant's held time would be near zero and big's fraction would sit
// above the window's ceiling. Run under -race in CI.
func TestSequentialHeavyTenantHeldToArbitratedShare(t *testing.T) {
	const (
		capacity = 4
		bigShare = 3
		cpuCost  = 2e-3
		seqRecs  = 40
	)
	pool := NewSharedPool(capacity)
	if err := pool.Admit("big", bigShare); err != nil {
		t.Fatal(err)
	}
	if err := pool.Admit("seq", 1); err != nil {
		t.Fatal(err)
	}

	bigGraph, bigOpts := poolWorkload(t, "seq-big", capacity, cpuCost, 3*seqRecs)
	seqGraph, seqOpts := seqPoolWorkload(t, "seq-small", capacity, cpuCost, seqRecs)
	bigOpts.Pool, bigOpts.PoolTenant = pool, "big"
	seqOpts.Pool, seqOpts.PoolTenant = pool, "seq"

	drain := func(g *pipeline.Graph, o Options, errCh chan<- error) {
		p, err := New(g, o)
		if err != nil {
			errCh <- err
			return
		}
		if _, _, err := p.Drain(0); err != nil {
			p.Close()
			errCh <- err
			return
		}
		errCh <- p.Close()
	}
	errs := make(chan error, 2)
	go drain(bigGraph, bigOpts, errs)
	go drain(seqGraph, seqOpts, errs)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	held := map[string]float64{}
	var seqStats PoolStats
	for _, s := range pool.Stats() {
		held[s.Tenant] = s.HeldSeconds
		if s.Tenant == "seq" {
			seqStats = s
		}
		if s.PeakWorkers > capacity {
			t.Fatalf("tenant %s peak %d exceeds pool capacity %d", s.Tenant, s.PeakWorkers, capacity)
		}
	}
	total := held["big"] + held["seq"]
	if total <= 0 {
		t.Fatal("no held core-seconds recorded")
	}
	// The sequential tenant's occupancy must be visible in the accounting at
	// all (the pre-gating failure mode is a near-zero charge), and must come
	// predominantly from the gated sequential stages — its source reads are
	// microseconds against 2ms of modeled filter spin per record.
	if seqStats.HeldSecondsSequential <= 0 {
		t.Fatal("sequential stages accrued no held time — filter/shuffle/batch are not gated")
	}
	if frac := seqStats.HeldSecondsSequential / seqStats.HeldSeconds; frac < 0.5 {
		t.Fatalf("sequential held fraction = %.3f of the seq tenant's %.3fs, want > 0.5",
			frac, seqStats.HeldSeconds)
	}
	// Same window as TestConcurrentTenantsReceiveArbitratedShares: ~0.75
	// under sustained 3:1 contention, generous tolerance for tails and chunk
	// granularity. An ungated consumer thread would push big's fraction to
	// ~1.0 (seq holds nothing), outside the ceiling.
	if frac := held["big"] / total; frac < 0.60 || frac > 0.92 {
		t.Fatalf("big held fraction = %.3f (big %.3fs, seq %.3fs incl. %.3fs sequential), want ~0.75 within [0.60, 0.92]",
			frac, held["big"], held["seq"], seqStats.HeldSecondsSequential)
	}
}

// TestSharedPoolEvictAndGrow pins the failure-isolation contract driven
// directly: eviction frees the guarantee immediately (even with slots still
// held by wedged workers), late releases settle against the reclaim debt
// without corrupting the accounting, evicted tenants fail fast, and the
// freed guarantee can be regranted to survivors with Grow.
func TestSharedPoolEvictAndGrow(t *testing.T) {
	p := NewSharedPool(4)
	if err := p.Admit("victim", 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit("survivor", 1); err != nil {
		t.Fatal(err)
	}
	var victimRel []func()
	for i := 0; i < 3; i++ {
		r, ok := p.Acquire("victim", nil)
		if !ok {
			t.Fatalf("victim acquire %d aborted", i)
		}
		victimRel = append(victimRel, r)
	}
	survRel, ok := p.Acquire("survivor", nil)
	if !ok {
		t.Fatal("survivor acquire aborted")
	}

	// Pool is full. Evicting the victim frees its 3-slot guarantee at once,
	// without waiting for its (possibly wedged) workers to release.
	if freed := p.Evict("victim"); freed != 3 {
		t.Fatalf("Evict freed %d, want 3", freed)
	}
	if freed := p.Evict("victim"); freed != 0 {
		t.Fatalf("second Evict freed %d, want 0", freed)
	}
	if freed := p.Evict("nobody"); freed != 0 {
		t.Fatalf("Evict of unknown tenant freed %d, want 0", freed)
	}
	for _, s := range p.Stats() {
		if s.Tenant == "victim" && (!s.Evicted || s.ShareCores != 0 || s.InFlight != 0) {
			t.Fatalf("victim stats after eviction: %+v", s)
		}
	}

	// The survivor can immediately occupy the freed capacity (borrowing).
	var extra []func()
	for i := 0; i < 3; i++ {
		r, ok := p.Acquire("survivor", nil)
		if !ok {
			t.Fatalf("survivor acquire %d after eviction aborted", i)
		}
		extra = append(extra, r)
	}
	// Pool is full again: the victim's late releases must settle against the
	// reclaim debt, not free capacity that was already handed out.
	for _, r := range victimRel {
		r()
	}
	done := make(chan struct{})
	aborted := make(chan bool, 1)
	go func() {
		_, ok := p.Acquire("survivor", done)
		aborted <- !ok
	}()
	time.Sleep(5 * time.Millisecond)
	close(done)
	p.Interrupt()
	if !<-aborted {
		t.Fatal("late victim releases created capacity out of thin air")
	}

	// An evicted tenant's further Acquire calls fail fast instead of
	// blocking or panicking.
	if _, ok := p.Acquire("victim", nil); ok {
		t.Fatal("evicted tenant was admitted")
	}

	// Grow hands the freed guarantee to the survivor; growing past capacity
	// or growing an evicted tenant is rejected.
	if err := p.Grow("victim", 1); err == nil {
		t.Fatal("Grow on an evicted tenant succeeded")
	}
	if err := p.Grow("survivor", 4); err == nil {
		t.Fatal("Grow past pool capacity succeeded")
	}
	if err := p.Grow("survivor", 3); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Stats() {
		if s.Tenant == "survivor" && s.ShareCores != 4 {
			t.Fatalf("survivor share after Grow = %d, want 4", s.ShareCores)
		}
	}
	survRel()
	for _, r := range extra {
		r()
	}
}

// TestSharedPoolTenantAbort is the -race integration: one tenant's pipeline
// dies on a permanent fault mid-contention, the host-style eviction and
// regrant run while the survivor still has two thirds of its drain to do,
// and the survivor ends up with the (previously contended) capacity — its
// peak worker count exceeds its original guarantee.
func TestSharedPoolTenantAbort(t *testing.T) {
	const capacity = 4
	pool := NewSharedPool(capacity)
	if err := pool.Admit("victim", 3); err != nil {
		t.Fatal(err)
	}
	if err := pool.Admit("survivor", 1); err != nil {
		t.Fatal(err)
	}

	victimGraph, victimOpts := poolWorkload(t, "abort-victim", capacity, 2e-3, 120)
	survGraph, survOpts := poolWorkload(t, "abort-survivor", capacity, 2e-3, 120)
	victimOpts.Pool, victimOpts.PoolTenant = pool, "victim"
	victimOpts.Retry = Retry{MaxAttempts: 2, BaseBackoff: 20 * time.Microsecond}
	survOpts.Pool, survOpts.PoolTenant = pool, "survivor"
	victimOpts.FS.SetFaults(&connector.FaultPlan{Rules: []connector.FaultRule{
		{Name: "dead", ErrorRate: 1, Permanent: true},
	}})

	victimErr := make(chan error, 1)
	go func() {
		p, err := New(victimGraph, victimOpts)
		if err != nil {
			victimErr <- err
			return
		}
		_, _, derr := p.Drain(0)
		p.Close()
		victimErr <- derr
	}()
	// The survivor's consumer stops a third of the way in (5 of 15
	// minibatches) until the victim's slots have been re-granted, so the
	// re-grant lands mid-drain however the scheduler orders the two tenants:
	// on one P under -race the whole 120-record drain could finish first.
	regranted := make(chan struct{})
	regrant := sync.OnceFunc(func() { close(regranted) })
	defer regrant() // a failed assertion below must not strand the survivor
	survErr := make(chan error, 1)
	go func() {
		p, err := New(survGraph, survOpts)
		if err != nil {
			survErr <- err
			return
		}
		_, _, err = p.Drain(5)
		<-regranted
		if err == nil {
			_, _, err = p.Drain(0)
		}
		if err != nil {
			p.Close()
			survErr <- err
			return
		}
		survErr <- p.Close()
	}()

	select {
	case err := <-victimErr:
		if err == nil {
			t.Fatal("victim drained cleanly despite permanent faults")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim did not fail")
	}
	if freed := pool.Evict("victim"); freed != 3 {
		t.Fatalf("Evict freed %d, want 3", freed)
	}
	if err := pool.Grow("survivor", 3); err != nil {
		t.Fatal(err)
	}
	regrant()
	if err := <-survErr; err != nil {
		t.Fatalf("survivor drain: %v", err)
	}
	for _, s := range pool.Stats() {
		if s.Tenant == "survivor" && s.PeakWorkers <= 1 {
			t.Fatalf("survivor peak workers = %d, want > its original guarantee of 1", s.PeakWorkers)
		}
	}
}
