package server

import (
	"context"
	"slices"
	"sort"
	"sync"
)

// Job admission. Every job waits in its tenant's FIFO queue (a
// single-tenant server has one queue, under tenant ""), and the shared
// slots are handed out by smooth weighted round-robin across the queues
// whose tenant is under its concurrency cap. A saturating tenant's
// backlog then costs other tenants at most its weight share — the
// property the starvation e2e pins. A slot is granted under the
// admission lock by the goroutine that frees it, or by the arriving job
// that finds it free.

// wrrEntry is one tenant's smooth-WRR accumulator, guarded by the
// admission lock.
type wrrEntry struct {
	id      string
	weight  int
	current int
}

// wrrPicker implements smooth weighted round-robin (the nginx variant):
// each pick, every eligible entry gains its weight, the largest
// accumulator wins and pays back the total eligible weight. Over any
// window where a set of entries stays continuously eligible, each is
// picked in proportion to its weight, within one slot per rotation, and
// no eligible entry is skipped forever.
type wrrPicker struct {
	entries []*wrrEntry
	byID    map[string]*wrrEntry
}

// newWRRPicker builds a picker over the given weights (weights < 1 are
// lifted to 1). Entries iterate in sorted id order so ties are broken
// deterministically toward the smaller id.
func newWRRPicker(weights map[string]int) *wrrPicker {
	p := &wrrPicker{byID: make(map[string]*wrrEntry, len(weights))}
	ids := make([]string, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p.add(id, weights[id])
	}
	return p
}

// add registers a new entry, keeping the sorted iteration order. Known
// ids are left untouched.
func (p *wrrPicker) add(id string, weight int) {
	if _, ok := p.byID[id]; ok {
		return
	}
	if weight < 1 {
		weight = 1
	}
	e := &wrrEntry{id: id, weight: weight}
	p.byID[id] = e
	i := sort.Search(len(p.entries), func(i int) bool { return p.entries[i].id >= id })
	p.entries = append(p.entries, nil)
	copy(p.entries[i+1:], p.entries[i:])
	p.entries[i] = e
}

// pick selects the next tenant among those eligible (queue non-empty and
// under any per-tenant cap); ok is false when none is. The flag, not the
// id, says "none": "" is the single-tenant id. Strict > with sorted
// iteration breaks accumulator ties toward the smaller id.
func (p *wrrPicker) pick(eligible func(id string) bool) (id string, ok bool) {
	total := 0
	var best *wrrEntry
	for _, e := range p.entries {
		if !eligible(e.id) {
			continue
		}
		total += e.weight
		e.current += e.weight
		if best == nil || e.current > best.current {
			best = e
		}
	}
	if best == nil {
		return "", false
	}
	best.current -= total
	return best.id, true
}

// admission owns the job slots. One mutex guards the free-slot count,
// the per-tenant queues and running counts, and the WRR accumulators.
// A queued job waits on its grant channel, which is closed when it is
// handed a slot.
type admission struct {
	tenants *tenantSet // nil: single-tenant, no per-tenant caps
	total   int

	mu      sync.Mutex
	free    int
	picker  *wrrPicker
	queues  map[string][]chan struct{}
	running map[string]int
}

// newAdmission builds admission over total slots, weighting each
// configured tenant's queue by its WRR weight.
func newAdmission(total int, tenants *tenantSet) *admission {
	weights := map[string]int{}
	if tenants != nil {
		for _, id := range tenants.ids {
			weights[id] = tenants.byID[id].weight()
		}
	}
	return &admission{
		tenants: tenants,
		total:   total,
		free:    total,
		picker:  newWRRPicker(weights),
		queues:  make(map[string][]chan struct{}),
		running: make(map[string]int),
	}
}

// tenant returns id's runtime state (nil in single-tenant mode, or for a
// recovered job whose tenant left the tenants file).
func (a *admission) tenant(id string) *tenantState {
	if a.tenants == nil {
		return nil
	}
	return a.tenants.byID[id]
}

// eligibleLocked reports whether tenant id can be granted a slot right
// now: a waiter is queued and the tenant is under its concurrency cap.
func (a *admission) eligibleLocked(id string) bool {
	if len(a.queues[id]) == 0 {
		return false
	}
	st := a.tenant(id)
	return st == nil || st.cfg.MaxConcurrentJobs <= 0 || a.running[id] < st.cfg.MaxConcurrentJobs
}

// grantLocked hands free slots to eligible waiters, one WRR pick each.
func (a *admission) grantLocked() {
	for a.free > 0 {
		id, ok := a.picker.pick(a.eligibleLocked)
		if !ok {
			return
		}
		q := a.queues[id]
		close(q[0])
		a.setQueueLocked(id, q[1:])
		a.free--
		a.running[id]++
		if st := a.tenant(id); st != nil {
			st.dispatched.Add(1)
		}
	}
}

// admit blocks until the job may run, honoring cancellation. The caller
// must pair a nil return with release.
func (a *admission) admit(ctx context.Context, tenant string) error {
	grant := make(chan struct{})
	a.mu.Lock()
	// A tenant outside the tenants file joins the rotation at the default
	// weight: "" on a single-tenant server, or the tenant of a recovered
	// job that has left the file since (its jobs still have to drain).
	a.picker.add(tenant, 1)
	a.queues[tenant] = append(a.queues[tenant], grant)
	a.grantLocked()
	a.mu.Unlock()
	select {
	case <-grant:
		return nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-grant:
		// The grant raced the cancel: give the slot straight back.
		a.releaseLocked(tenant)
	default:
		a.setQueueLocked(tenant, slices.DeleteFunc(a.queues[tenant], func(c chan struct{}) bool { return c == grant }))
	}
	return ctx.Err()
}

// setQueueLocked stores tenant's queue, dropping it once empty.
func (a *admission) setQueueLocked(tenant string, q []chan struct{}) {
	if len(q) == 0 {
		delete(a.queues, tenant)
	} else {
		a.queues[tenant] = q
	}
}

// release returns a slot granted by admit to the next eligible waiter.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	a.releaseLocked(tenant)
	a.mu.Unlock()
}

func (a *admission) releaseLocked(tenant string) {
	a.free++
	if a.running[tenant]--; a.running[tenant] <= 0 {
		delete(a.running, tenant)
	}
	a.grantLocked()
}

// slots reports how many slots are held and how many exist.
func (a *admission) slots() slotsView {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slotsView{InUse: a.total - a.free, Total: a.total}
}
