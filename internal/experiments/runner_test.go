package experiments

import (
	"context"
	"sync"
	"testing"
)

// serialSweep holds the serial RunAll(ctx, 1) sweep: the full
// reproduction suite is run once per test process and every test that
// asserts on the serial artefacts shares it.
var serialSweep struct {
	once sync.Once
	out  []Timed
	err  error
}

// serialRunAll returns the shared serial sweep, running it on first use.
func serialRunAll() ([]Timed, error) {
	serialSweep.once.Do(func() {
		serialSweep.out, serialSweep.err = RunAll(context.Background(), 1)
	})
	return serialSweep.out, serialSweep.err
}

// TestRunAllMatchesSerial is the determinism acceptance test of the
// parallel runner: every artefact from a parallel sweep must be
// byte-identical to the serial sweep, in the same registry order. Each
// experiment owns its engine and RNGs, so any divergence here means a
// hidden shared-state leak between experiments.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full double reproduction sweep is slow")
	}
	serial, err := serialRunAll()
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := RunAll(context.Background(), 4)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if len(serial) != len(parallel) || len(serial) != len(All()) {
		t.Fatalf("sweep sizes: serial=%d parallel=%d registry=%d",
			len(serial), len(parallel), len(All()))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Experiment.ID != All()[i].ID || p.Experiment.ID != All()[i].ID {
			t.Fatalf("order broken at %d: serial=%s parallel=%s registry=%s",
				i, s.Experiment.ID, p.Experiment.ID, All()[i].ID)
		}
		if s.Result == nil || p.Result == nil {
			t.Fatalf("%s: nil result (serial=%v parallel=%v)",
				All()[i].ID, s.Result == nil, p.Result == nil)
		}
		if s.Result.Text != p.Result.Text {
			t.Errorf("%s: parallel artefact differs from serial", All()[i].ID)
		}
		if s.Result.ID != p.Result.ID || s.Result.Title != p.Result.Title {
			t.Errorf("%s: result metadata differs", All()[i].ID)
		}
		if s.Elapsed <= 0 || p.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed time", All()[i].ID)
		}
	}
}

// TestRunAllCancelled checks a pre-cancelled context runs nothing, for
// both an explicit worker count and the GOMAXPROCS default.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{2, 0} {
		out, err := RunAll(ctx, parallelism)
		if err == nil {
			t.Fatalf("parallelism=%d: want context error", parallelism)
		}
		for _, o := range out {
			if o.Result != nil {
				t.Fatalf("%s ran despite cancelled context", o.Experiment.ID)
			}
		}
	}
}
