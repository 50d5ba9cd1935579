package cluster

import (
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/runtime"
)

// pooledRecords runs a 2-region tree with a fleet observer over n
// batches at a steady rate and returns how many echo records the node
// shards and relay records the sibling hub allocated.
func pooledRecords(t *testing.T, n int) (echoes, relays int) {
	t.Helper()
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 4},
		ShardConfig{Workers: 1, Hubs: 2},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	done := 0
	d.OnDone(func(DoneInfo) { done++ })
	for i := 0; i < n; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*100*event.Microsecond, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Run(); s.Accounted() != n || done != n {
		t.Fatalf("settled %d, observed %d, of %d batches", s.Accounted(), done, n)
	}
	for _, r := range d.regions {
		relays += len(r.relays)
		for _, sn := range r.sns {
			echoes += len(sn.echoes)
		}
	}
	return echoes, relays
}

// TestMessageRecordsReused pins allocation-free completion echoes and
// done relays: a warm record cycle allocates nothing, and once a steady
// run's pools cover the messages in flight, doubling the run allocates
// no further record.
func TestMessageRecordsReused(t *testing.T) {
	var p records[runtime.BatchResult]
	p.put(runtime.BatchResult{}).take()
	res := runtime.BatchResult{ID: 7, Completed: event.Millisecond}
	if n := testing.AllocsPerRun(100, func() { p.put(res).take() }); n != 0 {
		t.Errorf("warm record cycle allocates %v times, want 0", n)
	}
	if len(p) != 1 {
		t.Errorf("serial put/take grew the pool to %d records, want 1", len(p))
	}
	e1, r1 := pooledRecords(t, 200)
	e2, r2 := pooledRecords(t, 400)
	if e1 == 0 || r1 == 0 {
		t.Fatalf("run sent no pooled echoes (%d) or relays (%d)", e1, r1)
	}
	t.Logf("pooled records: %d echoes, %d relays", e1, r1)
	if e2 != e1 || r2 != r1 {
		t.Errorf("records over 200 batches: %d echoes, %d relays; over 400: %d, %d (want equal)",
			e1, r1, e2, r2)
	}
}
