package server

import (
	"reflect"
	"testing"

	"secreta/internal/store"
)

// orderIDs returns the table's jobs in eviction order, checking that the
// seq-ordered slice and the ID map hold the same jobs.
func orderIDs(t *testing.T, s *jobStore) []string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for i, j := range s.order {
		if i > 0 && s.order[i-1].seq >= j.seq {
			t.Fatalf("order not ascending by seq at %d", i)
		}
		if s.jobs[j.id] != j {
			t.Fatalf("%s in order but not in the table", j.id)
		}
		ids = append(ids, j.id)
	}
	if len(ids) != len(s.jobs) {
		t.Fatalf("order holds %d jobs, the table %d", len(ids), len(s.jobs))
	}
	return ids
}

func setStatus(j *job, st Status) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}

// TestJobEvictionOrderSkipsLiveJobs: past MaxJobs, the oldest terminal job
// goes first, however many queued or running jobs are older; restored
// jobs take their seq's place in the order; remove and the GC lever keep
// the order and the table in step.
func TestJobEvictionOrderSkipsLiveJobs(t *testing.T) {
	s := newJobStore(4)
	add := func() *job {
		j, reject := s.add("anonymize", func() {}, 0, nil, "", "", 0)
		if j == nil {
			t.Fatalf("add rejected: %s", reject)
		}
		return j
	}
	j1, j2, j3, j4 := add(), add(), add(), add()
	setStatus(j1, StatusRunning)
	setStatus(j2, StatusDone)
	// j3 stays queued.
	setStatus(j4, StatusFailed)
	want := func(ids ...string) {
		t.Helper()
		if got := orderIDs(t, s); !reflect.DeepEqual(got, ids) {
			t.Fatalf("jobs = %v, want %v", got, ids)
		}
	}

	j5 := add() // evicts j2, skipping running j1
	want(j1.id, j3.id, j4.id, j5.id)
	setStatus(j5, StatusDone)
	j6 := add() // evicts j4, skipping j1 and j3
	want(j1.id, j3.id, j5.id, j6.id)
	setStatus(j1, StatusCancelled)
	j7 := add() // j1 is now the oldest terminal job
	want(j3.id, j5.id, j6.id, j7.id)

	// Recovery restores out of order: a terminal job older than every
	// live one lands at the front and, the table being full, goes first.
	old := s.restore(store.JobRecord{ID: "j-000002", Seq: 2, Kind: "anonymize", Status: string(StatusDone)}, nil, nil)
	if _, ok := s.jobs[old.id]; ok {
		t.Fatal("restored terminal job outlived the cap")
	}
	want(j3.id, j5.id, j6.id, j7.id)
	mid := s.restore(store.JobRecord{ID: "j-000004", Seq: 4, Kind: "anonymize", Status: string(StatusQueued)}, nil, func() {})
	want(j3.id, mid.id, j6.id, j7.id) // j5 was the oldest terminal job

	if !s.remove(j6.id) {
		t.Fatal("remove reported j6 missing")
	}
	want(j3.id, mid.id, j7.id)
	setStatus(j7, StatusDone)
	if got := s.evictOldestTerminal(5); !reflect.DeepEqual(got, []string{j7.id}) {
		t.Fatalf("GC evicted %v, want only the terminal %s", got, j7.id)
	}
	want(j3.id, mid.id)
	if views, total := s.list(jobQuery{}); total != 2 || views[0].ID != j3.id || views[1].ID != mid.id {
		t.Fatalf("list = %d jobs %+v, want %s then %s", total, views, j3.id, mid.id)
	}
}
