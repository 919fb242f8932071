package server

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdSlot takes one job slot for tenant, as a running job would, so
// jobs submitted afterwards stay queued for as long as the test needs.
// The returned function gives the slot back.
func holdSlot(t *testing.T, s *Server, tenant string) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.admission.admit(ctx, tenant); err != nil {
		t.Fatalf("holding a job slot: %v", err)
	}
	return func() { s.admission.release(tenant) }
}

// checkAdmission asserts admission's invariants under its lock: the
// held slots are the sum of the per-tenant running counts, lie within
// [0, total], and no tenant runs past its cap.
func checkAdmission(t *testing.T, a *admission, caps map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	held := 0
	for id, n := range a.running {
		held += n
		if c := caps[id]; c > 0 && n > c {
			t.Errorf("tenant %q runs %d jobs, cap %d", id, n, c)
		}
	}
	if inUse := a.total - a.free; inUse < 0 || inUse > a.total || inUse != held {
		t.Errorf("slots in use %d (total %d) but tenants run %d", inUse, a.total, held)
	}
}

// TestAdmissionStress drives admission from many goroutines that admit,
// cancel and release at random — including cancels that race a grant
// and waiters whose context is cancelled before they queue. Run it under
// -race. Slots in use never exceed the total or a tenant's cap, return
// to 0, and every waiter that is not cancelled is admitted.
func TestAdmissionStress(t *testing.T) {
	cases := []struct {
		name    string
		tenants []TenantConfig
	}{
		{name: "single-tenant"},
		{name: "two-tenants", tenants: []TenantConfig{
			{ID: "a", Key: "ka", Weight: 2, MaxConcurrentJobs: 1},
			{ID: "b", Key: "kb", MaxConcurrentJobs: 2},
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ts *tenantSet
			ids := []string{""}
			caps := map[string]int{}
			if len(tc.tenants) > 0 {
				ts = newTenantSet(tc.tenants, nil)
				ids = ids[:0]
				for _, cfg := range tc.tenants {
					ids = append(ids, cfg.ID)
					caps[cfg.ID] = cfg.MaxConcurrentJobs
				}
			}
			const total, workers, rounds = 3, 12, 300
			a := newAdmission(total, ts)
			var held atomic.Int64
			heldBy := make(map[string]*atomic.Int64, len(ids))
			for _, id := range ids {
				heldBy[id] = new(atomic.Int64)
			}
			stop, checked := make(chan struct{}), make(chan struct{})
			defer func() {
				close(stop)
				<-checked
			}()
			go func() {
				defer close(checked)
				for {
					select {
					case <-stop:
						return
					default:
					}
					checkAdmission(t, a, caps)
					time.Sleep(50 * time.Microsecond)
				}
			}()

			var wg sync.WaitGroup
			var admitted, cancelled atomic.Int64
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for r := 0; r < rounds; r++ {
						id := ids[rng.Intn(len(ids))]
						ctx, cancel := context.WithCancel(context.Background())
						switch rng.Intn(4) {
						case 0: // cancelled before it queues
							cancel()
						case 1: // cancelled while it queues, racing a grant
							go func(d time.Duration) {
								time.Sleep(d)
								cancel()
							}(time.Duration(rng.Intn(100)) * time.Microsecond)
						}
						err := a.admit(ctx, id)
						if err != nil {
							if ctx.Err() == nil {
								t.Errorf("admit failed without a cancel: %v", err)
							}
							cancelled.Add(1)
							cancel()
							continue
						}
						admitted.Add(1)
						if n := held.Add(1); n > total {
							t.Errorf("%d slots held, total %d", n, total)
						}
						if n := heldBy[id].Add(1); caps[id] > 0 && n > int64(caps[id]) {
							t.Errorf("tenant %q holds %d slots, cap %d", id, n, caps[id])
						}
						if rng.Intn(2) == 0 {
							time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
						}
						heldBy[id].Add(-1)
						held.Add(-1)
						a.release(id)
						cancel()
					}
				}(int64(ci*1000 + g))
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("admission stalled: a waiter that was not cancelled was never admitted")
			}
			checkAdmission(t, a, caps)
			if got := a.slots().InUse; got != 0 {
				t.Fatalf("%d slots in use after every job released", got)
			}
			a.mu.Lock()
			queued, running := len(a.queues), len(a.running)
			a.mu.Unlock()
			if queued != 0 || running != 0 {
				t.Fatalf("admission not drained: %d tenants queued, %d running", queued, running)
			}
			if admitted.Load() == 0 || admitted.Load()+cancelled.Load() != workers*rounds {
				t.Fatalf("admitted %d + cancelled %d != %d waiters", admitted.Load(), cancelled.Load(), workers*rounds)
			}
		})
	}
}

// TestIdleTenantServerReportsNoSlotsInUse pins that a multi-tenant
// server with no job queued or running holds no job slot: after a job
// has run and finished, secreta_job_slots_in_use settles at 0.
func TestIdleTenantServerReportsNoSlotsInUse(t *testing.T) {
	_, ts := newTenantServer(t, Options{Workers: 1, MaxConcurrentJobs: 2},
		TenantConfig{ID: "acme", Key: "k-acme"})
	_, ref, _ := authedUpload(t, ts.URL, "k-acme", smallDatasetJSON(t, "idle"))
	id := submitAs(t, ts.URL, "k-acme", map[string]any{
		"dataset_ref": ref,
		"config":      map[string]any{"algo": "apriori", "k": 2, "m": 1},
	})
	if st := pollDoneAs(t, ts.URL, "k-acme", id); st != StatusDone {
		t.Fatalf("job ended %s, want done", st)
	}
	// The finished job gives its slot back just after its status turns
	// done; give that a moment, no more.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := scrape(t, ts.URL)["secreta_job_slots_in_use"]
		if got == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle tenant-mode server reports secreta_job_slots_in_use %v, want 0", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
