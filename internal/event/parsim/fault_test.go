package parsim

import (
	"reflect"
	"testing"

	"mlimp/internal/event"
)

// buildLossy wires a two-shard ping stream over a lossy a->b edge:
// shard a sends n messages one per hop, the edge drops with the given
// probability over [at, until), and b logs each arrival instant.
func buildLossy(workers, n int, f EdgeFault, reliable bool) (*Driver, *[]event.Time) {
	d := NewDriver(hop, workers)
	a, b := d.AddShard(), d.AddShard()
	d.AddEdgeFault(a, b, f)
	got := &[]event.Time{}
	arrive := d.Handle(func(dst *Shard, _ int, _ Payload) { *got = append(*got, dst.Engine().Now()) })
	for i := 0; i < n; i++ {
		a.Engine().At(event.Time(i)*hop, func() {
			if reliable {
				a.SendReliable(b, a.Engine().Now()+hop, arrive, Payload{})
			} else {
				a.SendAfter(b, hop, arrive, Payload{})
			}
		})
	}
	return d, got
}

func TestEdgeFaultDropDeterministicAcrossWorkers(t *testing.T) {
	f := EdgeFault{DropProb: 0.5, Seed: 42}
	var want []event.Time
	var wantStats Stats
	for _, workers := range []int{1, 2, 4, 8} {
		d, got := buildLossy(workers, 200, f, false)
		d.Run()
		if want == nil {
			want = *got
			wantStats = d.Stats()
			if len(want) == 0 || len(want) == 200 {
				t.Fatalf("drop=0.5 delivered %d of 200 (want a strict subset)", len(want))
			}
			if wantStats.Dropped != 200-len(want) {
				t.Fatalf("Stats.Dropped = %d, want %d", wantStats.Dropped, 200-len(want))
			}
			continue
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("workers=%d: lossy delivery diverges from workers=1", workers)
		}
		if d.Stats().Dropped != wantStats.Dropped {
			t.Fatalf("workers=%d: Dropped=%d diverges from %d", workers, d.Stats().Dropped, wantStats.Dropped)
		}
	}
}

func TestEdgeFaultSeedChangesDraws(t *testing.T) {
	d1, got1 := buildLossy(1, 200, EdgeFault{DropProb: 0.5, Seed: 1}, false)
	d1.Run()
	d2, got2 := buildLossy(1, 200, EdgeFault{DropProb: 0.5, Seed: 2}, false)
	d2.Run()
	if reflect.DeepEqual(*got1, *got2) {
		t.Error("different seeds produced identical drop patterns (implausible over 200 draws)")
	}
}

func TestEdgeFaultWindow(t *testing.T) {
	// Drops confined to [5hop, 10hop): sends landing outside the window
	// all arrive.
	f := EdgeFault{At: 5 * hop, Until: 10 * hop, DropProb: 1, Seed: 7}
	d, got := buildLossy(1, 20, f, false)
	d.Run()
	// Sends depart at i*hop for i in [0,20); those departing in the
	// window [5hop, 10hop) — i in {5..9} — are dropped.
	if len(*got) != 15 {
		t.Fatalf("windowed full-drop delivered %d of 20, want 15", len(*got))
	}
	for _, at := range *got {
		dep := at - hop
		if dep >= f.At && dep < f.Until {
			t.Fatalf("message departing at %v inside the drop window was delivered", dep)
		}
	}
	if s := d.Stats(); s.Dropped != 5 {
		t.Fatalf("Stats.Dropped = %d, want 5", s.Dropped)
	}
}

func TestSendReliableBypassesDropButPaysDelay(t *testing.T) {
	f := EdgeFault{DropProb: 1, Delay: 3 * hop, Seed: 9}
	d, got := buildLossy(1, 10, f, true)
	d.Run()
	if len(*got) != 10 {
		t.Fatalf("reliable sends over a full-drop edge delivered %d of 10", len(*got))
	}
	for i, at := range *got {
		want := event.Time(i)*hop + hop + 3*hop
		if at != want {
			t.Fatalf("reliable send %d arrived at %v, want %v (hop + 3hop delay)", i, at, want)
		}
	}
	s := d.Stats()
	if s.Dropped != 0 || s.Delayed != 10 {
		t.Fatalf("reliable stats dropped=%d delayed=%d, want 0/10", s.Dropped, s.Delayed)
	}
}

// TestEdgeFaultDelayHorizonSafe injects delay on a declared edge in
// horizon mode: the delay pushes arrivals later than the declared
// latency, which is always conservative-safe, and the run stays
// byte-identical across worker counts.
func TestEdgeFaultDelayHorizonSafe(t *testing.T) {
	build := func(workers int) (*Driver, *[]event.Time) {
		d := NewDriver(hop, workers)
		a, b := d.AddShard(), d.AddShard()
		d.SetEdge(a, b, EdgeLatency{Fixed: hop})
		d.SetEdge(b, a, EdgeLatency{Fixed: hop})
		d.AddEdgeFault(a, b, EdgeFault{Delay: 7 * hop})
		got := &[]event.Time{}
		// A ping carries its round to b; b echoes it back to a, which
		// starts the next round.
		var ping func(round int)
		var there, back Handler
		there = d.Handle(func(b *Shard, _ int, p Payload) {
			*got = append(*got, b.Engine().Now())
			b.SendAfter(a, hop, back, p)
		})
		back = d.Handle(func(_ *Shard, _ int, p Payload) { ping(int(p.A) + 1) })
		ping = func(round int) {
			if round >= 20 {
				return
			}
			a.SendAfter(b, hop, there, Payload{A: int64(round)})
		}
		a.Engine().At(0, func() { ping(0) })
		return d, got
	}
	var want []event.Time
	for _, workers := range []int{1, 4} {
		d, got := build(workers)
		d.Run()
		if want == nil {
			want = *got
			if len(want) != 20 {
				t.Fatalf("delivered %d of 20 delayed pings", len(want))
			}
			for i := 1; i < len(want); i++ {
				if want[i]-want[i-1] != 9*hop { // hop out + 7hop delay + hop back
					t.Fatalf("ping cadence %v, want %v", want[i]-want[i-1], 9*hop)
				}
			}
			if s := d.Stats(); s.Delayed != 20 {
				t.Fatalf("Stats.Delayed = %d, want 20", s.Delayed)
			}
			continue
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("workers=%d: delayed horizon run diverges", workers)
		}
	}
}

func TestEdgeFaultWindowsStack(t *testing.T) {
	// Two stacked windows on one edge: a delay-only fault plus a
	// full-drop window later. Both apply, in AddEdgeFault order.
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	d.AddEdgeFault(a, b, EdgeFault{Delay: hop})
	d.AddEdgeFault(a, b, EdgeFault{At: 10 * hop, DropProb: 1, Seed: 3})
	var got []event.Time
	arrive := d.Handle(func(dst *Shard, _ int, _ Payload) { got = append(got, dst.Engine().Now()) })
	for i := 0; i < 20; i++ {
		a.Engine().At(event.Time(i)*hop, func() { a.SendAfter(b, hop, arrive, Payload{}) })
	}
	d.Run()
	if len(got) != 10 {
		t.Fatalf("stacked faults delivered %d of 20, want the 10 pre-window sends", len(got))
	}
	for i, at := range got {
		if want := event.Time(i)*hop + 2*hop; at != want {
			t.Fatalf("send %d arrived at %v, want %v (hop + hop delay)", i, at, want)
		}
	}
}

func TestAddEdgeFaultPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	expectPanic("self-edge", func() { d.AddEdgeFault(a, a, EdgeFault{DropProb: 1}) })
	expectPanic("bad prob", func() { d.AddEdgeFault(a, b, EdgeFault{DropProb: 1.5}) })
	expectPanic("negative delay", func() { d.AddEdgeFault(a, b, EdgeFault{Delay: -1}) })
	expectPanic("injects nothing", func() { d.AddEdgeFault(a, b, EdgeFault{}) })
	foreign := NewDriver(hop, 1).AddShard()
	expectPanic("foreign shard", func() { d.AddEdgeFault(a, foreign, EdgeFault{DropProb: 1}) })
	d.Run()
	expectPanic("after Run", func() { d.AddEdgeFault(a, b, EdgeFault{DropProb: 1}) })
}

// TestFateMatchesSend pins Fate to the path Send takes: over stacked
// lossy and slow windows, in uniform and declared-edge mode, the fate
// of each send's departure under its pair sequence number (1, 2, ...)
// names exactly the messages that arrive and when. Fate counts nothing
// in Stats (Delivered counts the arrivals), and a key outside the
// sequence range draws its own coins.
func TestFateMatchesSend(t *testing.T) {
	for _, horizons := range []bool{false, true} {
		d := NewDriver(hop, 1)
		a, b := d.AddShard(), d.AddShard()
		if horizons {
			d.SetEdge(a, b, EdgeLatency{Fixed: 2 * hop})
		}
		d.AddEdgeFault(a, b, EdgeFault{DropProb: 0.4, Delay: 3 * hop, Seed: 42})
		d.AddEdgeFault(a, b, EdgeFault{At: 10 * hop, Until: 30 * hop, Delay: hop, Seed: 42})
		got := &[]event.Time{}
		arrive := d.Handle(func(dst *Shard, _ int, _ Payload) { *got = append(*got, dst.Engine().Now()) })
		const n = 40
		for i := 0; i < n; i++ {
			a.Engine().At(event.Time(i)*hop, func() { a.Send(b, a.EarliestTo(b), arrive, Payload{}) })
		}
		d.Run()
		var want []event.Time
		differ := false
		for i := 0; i < n; i++ {
			at, lost := d.Fate(a, b, event.Time(i)*hop, uint64(i+1))
			if !lost {
				want = append(want, at)
			}
			if _, l := d.Fate(a, b, event.Time(i)*hop, 1<<63|uint64(i+1)); l != lost {
				differ = true
			}
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("horizons=%v: sends arrived at %v, Fate predicts %v", horizons, *got, want)
		}
		if len(want) == 0 || len(want) == n {
			t.Fatalf("horizons=%v: drop=0.4 delivered %d of %d (want a strict subset)", horizons, len(want), n)
		}
		if s := d.Stats(); s.Dropped != n-len(want) || s.Delivered != len(want) {
			t.Errorf("horizons=%v: Stats dropped=%d delivered=%d after Fate calls, want %d and %d",
				horizons, s.Dropped, s.Delivered, n-len(want), len(want))
		}
		if !differ {
			t.Errorf("horizons=%v: keys outside the sequence range drew the same %d coins", horizons, n)
		}
	}
}

// TestEdgeFaults: EdgeFaults lists a pair's windows in declaration
// order, per direction, and nothing for a pair without any.
func TestEdgeFaults(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b, c := d.AddShard(), d.AddShard(), d.AddShard()
	w1 := EdgeFault{DropProb: 0.5, Seed: 1}
	w2 := EdgeFault{At: 5 * hop, Until: 9 * hop, Delay: hop, Seed: 1}
	d.AddEdgeFault(a, b, w1)
	d.AddEdgeFault(a, b, w2)
	if got := d.EdgeFaults(a, b); !reflect.DeepEqual(got, []EdgeFault{w1, w2}) {
		t.Errorf("a->b windows %v, want %v", got, []EdgeFault{w1, w2})
	}
	for _, p := range [][2]*Shard{{b, a}, {a, c}, {c, b}} {
		if got := d.EdgeFaults(p[0], p[1]); got != nil {
			t.Errorf("shard %d->%d windows %v, want none", p[0].ID(), p[1].ID(), got)
		}
	}
	if !w2.Active(5*hop) || w2.Active(9*hop) || w2.Active(4*hop) {
		t.Error("Active does not cover exactly [At, Until)")
	}
}
