package main

import (
	"bytes"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"mlimp/internal/graph"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mlimp/internal/graph.(*Sampler).Sample"}, "graph"},
		{[]string{"runtime.mapaccess2", "mlimp/internal/sched.(*System).kneeSearch"}, "sched"},
		{[]string{"mlimp/internal/event/parsim.(*Driver).runWindow.func1"}, "parsim"},
		{[]string{"mlimp/internal/event.(*Engine).Run"}, "event"},
		{[]string{"mlimp/internal/tensor.SpMM", "mlimp/internal/kernels.SpMM"}, "kernels"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "mlimp/internal/mlp.(*Net).Fit"}, "gc"},
		{[]string{"mlimp/bench.percentile[go.shape.float64]", "main.main"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real CPU profile of graph sampling parses, and the time lands on the
// graph layer.
func TestParseProfileAttributesGraphSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := servingDataset.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		s.Sample(rng.Intn(g.N))
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples")
	}
	// Under the race detector part of the time runs in its C runtime, which
	// has no Go frames, so graph need only lead the repo's layers.
	shares := p.shares()
	for _, l := range hostLayers {
		if l != "graph" && l != "other" && shares[l] >= shares["graph"] {
			t.Errorf("layer %s has share %.2f, graph only %.2f", l, shares[l], shares["graph"])
		}
	}
	if p.cumulative("mlimp/internal/graph.(*Sampler).Sample") <= 0 {
		t.Error("no cumulative time for Sampler.Sample")
	}
}
