package mem

import (
	"strings"
	"testing"

	"mlimp/internal/isa"
)

func TestTableIIIConfigs(t *testing.T) {
	cases := []struct {
		cfg       Config
		totalALUs int64
		mhz       float64
	}{
		{SRAMConfig, 1_310_720, 2500}, // 1.31 M
		{DRAMConfig, 67_108_864, 300}, // 67.1 M
		{ReRAMConfig, 1_376_256, 20},  // 1.37 M
	}
	for _, c := range cases {
		if got := c.cfg.TotalALUs(); got != c.totalALUs {
			t.Errorf("%s ALUs = %d, want %d", c.cfg.Target, got, c.totalALUs)
		}
		if c.cfg.FreqMHz != c.mhz {
			t.Errorf("%s freq = %v", c.cfg.Target, c.cfg.FreqMHz)
		}
	}
	// ReRAM chip: 128*128*2 bits * 86016 arrays = 336 MB.
	if got := ReRAMConfig.TotalBytes(); got != 336*1024*1024 {
		t.Errorf("ReRAM capacity = %d, want 336 MiB", got)
	}
	// SRAM compute region: 256*256 bits * 5120 = 40 MiB.
	if got := SRAMConfig.TotalBytes(); got != 40*1024*1024 {
		t.Errorf("SRAM capacity = %d, want 40 MiB", got)
	}
	// DRAM: 64 GiB of DDR4.
	if got := DRAMConfig.TotalBytes(); got != 64*1024*1024*1024 {
		t.Errorf("DRAM capacity = %d, want 64 GiB", got)
	}
}

func TestConfigFor(t *testing.T) {
	for _, tgt := range isa.Targets {
		c := ConfigFor(tgt)
		if c.Target != tgt {
			t.Errorf("ConfigFor(%s).Target = %s", tgt, c.Target)
		}
		if !strings.Contains(c.String(), tgt.String()) {
			t.Errorf("String missing target: %q", c.String())
		}
	}
}

func TestClockMatchesFrequency(t *testing.T) {
	if p := SRAMConfig.Clock().Period(); p != 400 {
		t.Errorf("SRAM period = %d ps, want 400", p)
	}
	if p := ReRAMConfig.Clock().Period(); p != 50000 {
		t.Errorf("ReRAM period = %d ps, want 50000", p)
	}
}

func TestTechnologies(t *testing.T) {
	ts := Technologies()
	if len(ts) != 5 {
		t.Fatalf("want 5 technologies, got %d", len(ts))
	}
	sram, ok := TechnologyByName("SRAM")
	if !ok {
		t.Fatal("SRAM missing")
	}
	dram, _ := TechnologyByName("DRAM")
	flash, _ := TechnologyByName("NAND-Flash")
	reram, _ := TechnologyByName("ReRAM")
	// Figure 1 shape: SRAM is the fastest and most parallel; Flash and
	// DRAM have low parallelism despite small cells (shared SAs); NVM
	// energy/access exceeds SRAM by 1-2 orders of magnitude.
	if sram.LatencyNs >= dram.LatencyNs {
		t.Error("SRAM should be faster than DRAM")
	}
	if sram.Parallelism() <= dram.Parallelism() {
		t.Error("SRAM SA parallelism should exceed DRAM (shared SAs)")
	}
	if reram.Parallelism() <= dram.Parallelism() {
		t.Error("ReRAM multi-row analog parallelism should exceed DRAM")
	}
	if flash.Parallelism() >= dram.Parallelism() {
		t.Error("flash parallelism should be lowest")
	}
	if ratio := reram.EnergyPJPerBit / sram.EnergyPJPerBit; ratio < 10 || ratio > 200 {
		t.Errorf("ReRAM/SRAM energy ratio = %.1f, want 1-2 orders of magnitude", ratio)
	}
	if _, ok := TechnologyByName("bogus"); ok {
		t.Error("bogus lookup should fail")
	}
}
