package isa

import (
	"strings"
	"testing"

	"mlimp/internal/dfg"
)

func macKernel() *dfg.Graph {
	g := dfg.NewGraph("mac")
	a := g.Input("a")
	b := g.Input("b")
	g.Output(g.Mul(a, b))
	return g
}

func TestTableIIIMACCycles(t *testing.T) {
	// The Table III anchor points: one 16-bit MAC costs 302 cycles in
	// SRAM, 1510 in DRAM, 8 in ReRAM.
	g := macKernel()
	want := map[Target]int64{SRAM: 302, DRAM: 1510, ReRAM: 8}
	for tgt, w := range want {
		p, err := Compile(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if p.Cycles != w {
			t.Errorf("%s MAC cycles = %d, want %d", tgt, p.Cycles, w)
		}
	}
}

func TestTableIIIMACThroughput(t *testing.T) {
	// MOPS/ALU = MHz / cycles-per-MAC must match the Table III column:
	// SRAM 8.278, DRAM 0.199, ReRAM 2.500.
	mhz := map[Target]float64{SRAM: 2500, DRAM: 300, ReRAM: 20}
	want := map[Target]float64{SRAM: 8.278, DRAM: 0.199, ReRAM: 2.500}
	g := macKernel()
	for tgt, w := range want {
		p, _ := Compile(g, tgt)
		got := mhz[tgt] / float64(p.Cycles)
		if got < w*0.99 || got > w*1.01 {
			t.Errorf("%s MOPS = %.3f, want %.3f", tgt, got, w)
		}
	}
}

func TestMultiOperandMACScaling(t *testing.T) {
	// Table III "(4ops)" column: four MACs cost 4x in SRAM/DRAM but the
	// same single crossbar access in ReRAM (2.5 MOPS in both columns).
	g := dfg.NewGraph("mac4")
	a, b := g.Input("a"), g.Input("b")
	g.Output(g.Dot(a, b, a, b, a, b, a, b)) // 4 pairs
	one := macKernel()
	for _, tgt := range []Target{SRAM, DRAM} {
		p4, _ := Compile(g, tgt)
		p1, _ := Compile(one, tgt)
		if p4.Cycles != 4*p1.Cycles {
			t.Errorf("%s 4-op MAC = %d, want %d", tgt, p4.Cycles, 4*p1.Cycles)
		}
	}
	p4, _ := Compile(g, ReRAM)
	if p4.Cycles != 8 {
		t.Errorf("ReRAM 4-op MAC = %d, want 8 (analog accumulation)", p4.Cycles)
	}
}

func TestReRAMDotSerialisesBeyondCrossbarHeight(t *testing.T) {
	g := dfg.NewGraph("bigdot")
	a, b := g.Input("a"), g.Input("b")
	args := make([]dfg.NodeID, 0, 2*200)
	for i := 0; i < 200; i++ { // 200 pairs > 128 crossbar rows
		args = append(args, a, b)
	}
	g.Output(g.Dot(args...))
	p, _ := Compile(g, ReRAM)
	if p.Cycles != 16 { // two groups of <=128 pairs, 8 cycles each
		t.Errorf("200-pair dot = %d cycles, want 16", p.Cycles)
	}
}

func TestCompileAllAndOrdering(t *testing.T) {
	g := dfg.NewGraph("blend")
	x, y := g.Input("x"), g.Input("y")
	c := g.CmpLT(x, y)
	g.Output(g.Select(c, g.Add(x, y), g.Sub(x, y)))
	ps, err := CompileAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("want 3 programs, got %d", len(ps))
	}
	// A simple-op kernel runs in the fewest cycles on ReRAM (bit
	// parallel) and the most on DRAM (5x bit-serial steps, and the
	// slowest clock is accounted elsewhere).
	if !(ps[ReRAM].Cycles < ps[SRAM].Cycles && ps[SRAM].Cycles < ps[DRAM].Cycles) {
		t.Errorf("cycle ordering wrong: reram=%d sram=%d dram=%d",
			ps[ReRAM].Cycles, ps[SRAM].Cycles, ps[DRAM].Cycles)
	}
	for _, p := range ps {
		if p.Mix[dfg.OpSelect] != 1 || p.Mix[dfg.OpCmpLT] != 1 {
			t.Errorf("%s mix = %v", p.Target, p.Mix)
		}
		if len(p.Instrs) != 4 { // cmplt, add, sub, select (inputs free)
			t.Errorf("%s instr count = %d", p.Target, len(p.Instrs))
		}
	}
}

func TestDRAMIsExactlyFiveTimesSRAM(t *testing.T) {
	// The Ambit TRA sequence factor applies to every bit-serial op.
	g := dfg.NewGraph("mixed")
	x, y := g.Input("x"), g.Input("y")
	g.Output(g.Div(g.Exp2(g.Min(g.Add(x, y), g.Mul(x, y))), y))
	ps, _ := CompileAll(g)
	if ps[DRAM].Cycles != 5*ps[SRAM].Cycles {
		t.Errorf("DRAM %d != 5 x SRAM %d", ps[DRAM].Cycles, ps[SRAM].Cycles)
	}
}

func TestCompileRejectsInvalidGraph(t *testing.T) {
	g := dfg.NewGraph("no-output")
	g.Input("x")
	if _, err := Compile(g, SRAM); err == nil {
		t.Error("expected error for output-less graph")
	}
	if _, err := CompileAll(g); err == nil {
		t.Error("CompileAll should propagate the error")
	}
}

func TestEveryOpHasALoweringOnEveryTarget(t *testing.T) {
	g := dfg.NewGraph("everything")
	x, y := g.Input("x"), g.Input("y")
	g.Output(g.Mov(x))
	g.Output(g.Add(x, y))
	g.Output(g.Sub(x, y))
	g.Output(g.Mul(x, y))
	g.Output(g.Div(x, y))
	g.Output(g.Min(x, y))
	g.Output(g.Max(x, y))
	g.Output(g.CmpLT(x, y))
	g.Output(g.CmpEQ(x, y))
	g.Output(g.And(x, y))
	g.Output(g.Or(x, y))
	g.Output(g.Xor(x, y))
	g.Output(g.Not(x))
	g.Output(g.Shl(x, 2))
	g.Output(g.Shr(x, 2))
	g.Output(g.Select(x, y, x))
	g.Output(g.Exp2(x))
	g.Output(g.Dot(x, y))
	g.Output(g.ReduceAdd(x))
	g.Output(g.ReduceMax(x))
	for _, tgt := range Targets {
		p, err := Compile(g, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		for _, in := range p.Instrs {
			if in.Cycles <= 0 {
				t.Errorf("%s: %s has non-positive cost", tgt, in.Op)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	p, _ := Compile(macKernel(), SRAM)
	if s := p.String(); !strings.Contains(s, "SRAM") || !strings.Contains(s, "302") {
		t.Errorf("String = %q", s)
	}
	if d := p.Disassemble(); !strings.Contains(d, "mul") {
		t.Errorf("Disassemble = %q", d)
	}
	if m := p.MixString(); !strings.Contains(m, "mul:1") {
		t.Errorf("MixString = %q", m)
	}
	if SRAM.String() != "SRAM" || Target(9).String() == "" {
		t.Error("target names wrong")
	}
}

func TestReductionDepthTracksLaneCount(t *testing.T) {
	g := dfg.NewGraph("red")
	x := g.Input("x")
	g.Output(g.ReduceAdd(x))
	ps, _ := CompileAll(g)
	// SRAM: 256 lanes -> 8 stages * 32 = 256. DRAM: 65536 lanes -> 16
	// stages * 32 * 5 = 2560. ReRAM: 16 lanes -> 4 stages * 2 = 8.
	if ps[SRAM].Cycles != 256 || ps[DRAM].Cycles != 2560 || ps[ReRAM].Cycles != 8 {
		t.Errorf("reduction cycles = %d/%d/%d", ps[SRAM].Cycles, ps[DRAM].Cycles, ps[ReRAM].Cycles)
	}
}

func TestParseTargets(t *testing.T) {
	got, err := ParseTargets(" ReRAM,sram , DRAM")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Target{ReRAM, SRAM, DRAM}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("ParseTargets = %v, want %v", got, want)
	}
	for _, spec := range []string{"sram,foo", "", "sram,,dram"} {
		if _, err := ParseTargets(spec); err == nil || !strings.Contains(err.Error(), "unknown layer") {
			t.Errorf("ParseTargets(%q) err = %v, want unknown layer", spec, err)
		}
	}
}
