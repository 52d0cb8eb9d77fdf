package engine

import (
	"fmt"
	"sync"
	"time"
)

// SharedPool arbitrates worker admission across pipelines running
// concurrently on one host — the execution half of the multi-tenant story:
// the arbiter (internal/host) decides each tenant's core share, and the pool
// enforces it while the tenants actually contend.
//
// Every admitted tenant has a guaranteed share of worker slots. A
// parallel-stage worker must hold a slot while it processes a chunk of
// elements, so under contention a tenant's in-flight worker count — and
// therefore the CPU it can occupy — is held to its share. Admission is
// work-conserving: when the pool has free capacity (another tenant is idle,
// finished, or stalled on a full downstream channel), a tenant may borrow
// beyond its share. Guaranteed acquisitions have strict priority, decided
// when a slot frees: a borrow is refused while any tenant with a worker
// blocked in Acquire holds fewer slots than its guarantee, so the freed slot
// goes to that tenant, not to whichever woken waiter locks first. A borrower
// gives its slot back at the next chunk boundary (slot.yield); a tenant
// within its share keeps its slot, because guarantees sum to at most the
// capacity and only a borrower can keep a guaranteed waiter out. That is
// what makes the shares hold up under contention instead of devolving into
// a free-for-all.
//
// Slots are acquired and released at chunk granularity (Options.ChunkSize
// elements), so enforcement costs one mutex acquisition per chunk — noise
// next to the chunk's work — and preemption latency is bounded by one
// chunk's processing time. A worker releases its slot before a blocking
// downstream handoff but does keep it across filesystem reads: a tenant
// stalled on a throttled device still occupies — and is charged for — its
// slots, which is the conservative direction for the share accounting.
//
// The pool also keeps per-tenant accounting (held core-seconds, peak
// concurrent workers, borrow counts) so a measured concurrent run can report
// the share each tenant actually received next to the share it was promised.
type SharedPool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	inflight int
	reserved int
	tenants  map[string]*poolTenant
	order    []*poolTenant // admission order
}

// poolTenant is one tenant's admission state and accounting.
type poolTenant struct {
	name     string
	share    int
	inflight int
	peak     int
	// waiting counts the tenant's workers blocked in Acquire. While it is
	// non-zero and inflight is below share, the tenant's guarantee is owed
	// and nobody may borrow.
	waiting int
	// heldNanos is total slot-hold time; heldSeqNanos is the part accrued by
	// sequential consumer-side stages (inline UDF, shuffle, batch), a subset.
	heldNanos    int64
	heldSeqNanos int64
	acquires     int64
	borrows      int64
	// evicted marks a tenant whose guarantee was reclaimed (failure
	// isolation); its Acquire calls fail instead of blocking or panicking.
	evicted bool
	// reclaimed counts slots force-freed by Evict whose workers still hold
	// a release closure; those releases decrement this debt instead of the
	// pool's inflight count, so a wedged worker's eventual release (or its
	// absence) can never corrupt the accounting.
	reclaimed int
}

// NewSharedPool returns a pool with the given total worker-slot capacity
// (the host's arbitrated core budget). Capacity below 1 is raised to 1.
func NewSharedPool(capacity int) *SharedPool {
	if capacity < 1 {
		capacity = 1
	}
	p := &SharedPool{capacity: capacity, tenants: make(map[string]*poolTenant)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Admit registers a tenant with a guaranteed share of worker slots. The sum
// of guarantees may not exceed the pool capacity — a guarantee that cannot
// be honored is a lie, not an admission policy. Shares below 1 are raised to
// 1 (every admitted tenant must be able to make progress).
func (p *SharedPool) Admit(tenant string, share int) error {
	if tenant == "" {
		return fmt.Errorf("engine: pool tenant needs a name")
	}
	if share < 1 {
		share = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tenants[tenant]; ok {
		return fmt.Errorf("engine: pool tenant %q already admitted", tenant)
	}
	if p.reserved+share > p.capacity {
		return fmt.Errorf("engine: pool guarantees %d+%d slots exceed capacity %d",
			p.reserved, share, p.capacity)
	}
	p.reserved += share
	t := &poolTenant{name: tenant, share: share}
	p.tenants[tenant] = t
	p.order = append(p.order, t)
	return nil
}

// Admitted reports whether the tenant has been admitted.
func (p *SharedPool) Admitted(tenant string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.tenants[tenant]
	return ok
}

// Acquire blocks until the tenant may run one more worker, returning a
// release function for the held slot. A tenant inside its guarantee is
// admitted as soon as a slot frees; beyond it, admission requires free
// capacity and no tenant owed its guarantee (work-conserving borrowing
// with strict guarantee priority). Acquire aborts and returns ok == false
// when done closes; a closer must call Interrupt afterwards so blocked
// waiters re-check it. Acquiring for an unadmitted tenant panics — the
// engine validates admission at construction, so this is a programming
// error, not a runtime condition.
func (p *SharedPool) Acquire(tenant string, done <-chan struct{}) (release func(), ok bool) {
	return p.acquireSlot(tenant, done, false)
}

// acquireSlot is Acquire with a stage-kind tag: sequential marks slots held
// by consumer-side sequential stages (inline UDF, shuffle, batch), whose
// hold time is also accumulated into the tenant's sequential bucket so the
// share report can show how much of its occupancy came from gated
// sequential work.
func (p *SharedPool) acquireSlot(tenant string, done <-chan struct{}, sequential bool) (release func(), ok bool) {
	p.mu.Lock()
	t, admitted := p.tenants[tenant]
	if !admitted {
		p.mu.Unlock()
		panic(fmt.Sprintf("engine: pool Acquire for unadmitted tenant %q", tenant))
	}
	// Both sides of the decision — this tenant below its guarantee, some
	// tenant owed one — are read under the lock at every wake: a worker that
	// blocked while a sibling held its tenant's share is inside the
	// guarantee once that sibling releases.
	for {
		if t.evicted || closed(done) {
			// A departing waiter may have been all that kept borrowers out.
			p.cond.Broadcast()
			p.mu.Unlock()
			return nil, false
		}
		if p.inflight < p.capacity && (t.inflight < t.share || !p.owed()) {
			break
		}
		t.waiting++
		p.cond.Wait()
		t.waiting--
	}
	p.inflight++
	t.inflight++
	if p.inflight < p.capacity {
		// Room is left, and borrowers kept out while this tenant was owed its
		// guarantee get no release broadcast to wake them.
		p.cond.Broadcast()
	}
	if t.inflight > t.peak {
		t.peak = t.inflight
	}
	t.acquires++
	if t.inflight > t.share {
		t.borrows++
	}
	p.mu.Unlock()
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			held := time.Since(start)
			p.mu.Lock()
			if t.reclaimed > 0 {
				// This slot was already force-freed by Evict; settle the
				// debt without double-decrementing the pool.
				t.reclaimed--
			} else {
				p.inflight--
				t.inflight--
			}
			t.heldNanos += int64(held)
			if sequential {
				t.heldSeqNanos += int64(held)
			}
			p.mu.Unlock()
			p.cond.Broadcast()
		})
	}, true
}

// owed reports whether some tenant has a worker blocked in Acquire while it
// holds fewer slots than its guarantee: the next free slot is that tenant's,
// and nobody may borrow it. Caller holds p.mu.
func (p *SharedPool) owed() bool {
	for _, t := range p.order {
		if t.waiting > 0 && t.inflight < t.share {
			return true
		}
	}
	return false
}

// mustYield reports whether a worker holding one of tenant's slots gives it
// back at a chunk boundary: only when the tenant holds more slots than its
// guarantee — guarantees sum to at most the capacity, so only a borrower can
// keep a guaranteed waiter out — or its admission was reclaimed, which the
// re-acquire then reports.
func (p *SharedPool) mustYield(tenant string) bool {
	p.mu.Lock()
	t := p.tenants[tenant]
	yield := t.evicted || t.inflight > t.share
	p.mu.Unlock()
	return yield
}

// closed reports whether done is closed; a nil done never closes.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Evict reclaims a tenant's admission for failure isolation: its guarantee
// returns to the pool, every slot it currently holds is force-freed (a
// wedged worker may never release; its late release settles against a
// reclaim debt instead of the live accounting), and its pending and future
// Acquire calls fail fast. Evict returns the number of guaranteed slots
// freed, or 0 for an unknown or already-evicted tenant. The freed guarantee
// can be redistributed to survivors with Grow.
//
// Evict reaches only workers blocked in Acquire. A worker parked on a full
// stage edge, or a consumer waiting on one that still has producers, waits
// for its stage's latch: the owner cancels or closes the tenant's pipeline
// after evicting it, as host.RunConcurrent does.
func (p *SharedPool) Evict(tenant string) int {
	p.mu.Lock()
	t, ok := p.tenants[tenant]
	if !ok || t.evicted {
		p.mu.Unlock()
		return 0
	}
	freed := t.share
	t.evicted = true
	p.reserved -= t.share
	t.share = 0
	p.inflight -= t.inflight
	t.reclaimed += t.inflight
	t.inflight = 0
	// Freed capacity and the eviction itself unblock waiters (including the
	// evicted tenant's own, which now fail fast).
	p.cond.Broadcast()
	p.mu.Unlock()
	return freed
}

// Grow raises a live tenant's guaranteed share by delta slots — the
// redistribution half of failure isolation, handing an evicted tenant's
// freed guarantee to survivors. The grown guarantee must still fit the pool
// capacity.
func (p *SharedPool) Grow(tenant string, delta int) error {
	if delta <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[tenant]
	if !ok {
		return fmt.Errorf("engine: pool Grow: tenant %q not admitted", tenant)
	}
	if t.evicted {
		return fmt.Errorf("engine: pool Grow: tenant %q is evicted", tenant)
	}
	if p.reserved+delta > p.capacity {
		return fmt.Errorf("engine: pool Grow: guarantees %d+%d slots exceed capacity %d",
			p.reserved, delta, p.capacity)
	}
	p.reserved += delta
	t.share += delta
	p.cond.Broadcast()
	return nil
}

// Interrupt wakes every blocked Acquire so it can re-check its done channel.
// Pipeline teardown calls it after closing the done channel; it is otherwise
// harmless. Waiters parked on a stage edge are not the pool's to wake: the
// closed done channel is their stage's latch, and it wakes them itself. The
// broadcast happens under the pool mutex: an unlocked broadcast could fire
// between a worker's done-check and its cond.Wait (both under the mutex) and
// be lost, hanging that worker forever.
func (p *SharedPool) Interrupt() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// PoolStats is one tenant's admission accounting.
type PoolStats struct {
	// Tenant and ShareCores echo the admission.
	Tenant     string `json:"tenant"`
	ShareCores int    `json:"share_cores"`
	// InFlight is the tenant's currently held slot count.
	InFlight int `json:"in_flight"`
	// PeakWorkers is the maximum concurrently held slots since the last
	// ResetStats; a value above ShareCores is direct evidence of borrowing.
	PeakWorkers int `json:"peak_workers"`
	// HeldSeconds accumulates slot-hold time (core-seconds the tenant
	// occupied); the ratio across tenants is the share each actually got.
	HeldSeconds float64 `json:"held_seconds"`
	// HeldSecondsSequential is the subset of HeldSeconds accrued by
	// consumer-side sequential stages (inline UDF, shuffle, batch), which the
	// pool admits too. Nonzero means the tenant's sequential work is being
	// gated and charged, not running outside the share.
	HeldSecondsSequential float64 `json:"held_seconds_sequential,omitempty"`
	// Acquires counts slot grants; Borrows counts grants beyond the share.
	Acquires int64 `json:"acquires"`
	Borrows  int64 `json:"borrows"`
	// Evicted marks a tenant whose admission was reclaimed for failure
	// isolation; its ShareCores reads 0 from that point on.
	Evicted bool `json:"evicted,omitempty"`
}

// Stats returns per-tenant accounting in admission order.
func (p *SharedPool) Stats() []PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PoolStats, 0, len(p.order))
	for _, t := range p.order {
		out = append(out, PoolStats{
			Tenant:                t.name,
			ShareCores:            t.share,
			InFlight:              t.inflight,
			PeakWorkers:           t.peak,
			HeldSeconds:           float64(t.heldNanos) / 1e9,
			HeldSecondsSequential: float64(t.heldSeqNanos) / 1e9,
			Acquires:              t.acquires,
			Borrows:               t.borrows,
			Evicted:               t.evicted,
		})
	}
	return out
}

// ResetStats zeroes the accumulated accounting (held time, peaks, counts)
// without touching admissions or in-flight slots, so a measurement window
// can be isolated from warmup.
func (p *SharedPool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tenants {
		t.peak = t.inflight
		t.heldNanos = 0
		t.heldSeqNanos = 0
		t.acquires = 0
		t.borrows = 0
	}
}
