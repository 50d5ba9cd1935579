// Package mem defines the common abstraction over MLIMP's computable
// memories: the Table III device configurations and the Figure 1
// technology characteristics. Arrays are allocated by the scheduler
// (sched.Layer's ArraySet free lists), not here.
package mem

import (
	"fmt"
	"sort"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Config describes one in-memory computing device, mirroring a Table III
// row.
type Config struct {
	Target       isa.Target
	ArrayRows    int // wordlines per array
	ArrayCols    int // bitlines per array
	BitsPerCell  int
	NumArrays    int
	MBPerMM2     float64
	FreqMHz      float64
	ALUsPerArray int
	MaxJobs      int // outstanding jobs per device ("up to 8", Sec. V-A)
}

// TotalALUs returns the device-wide SIMD ALU count.
func (c Config) TotalALUs() int64 { return int64(c.NumArrays) * int64(c.ALUsPerArray) }

// ArrayBits returns the bit capacity of one array.
func (c Config) ArrayBits() int64 {
	return int64(c.ArrayRows) * int64(c.ArrayCols) * int64(c.BitsPerCell)
}

// ArrayBytes returns the byte capacity of one array.
func (c Config) ArrayBytes() int64 { return c.ArrayBits() / 8 }

// TotalBytes returns the device-wide byte capacity.
func (c Config) TotalBytes() int64 { return c.ArrayBytes() * int64(c.NumArrays) }

// Clock returns the device clock.
func (c Config) Clock() event.Clock { return event.NewClock(c.FreqMHz) }

// String renders the Table III row.
func (c Config) String() string {
	return fmt.Sprintf("%-5s %4dx%-6d x%d bit/cell  #arrays=%-6d %5.1f MB/mm2 %6.0f MHz  ALUs=%d",
		c.Target, c.ArrayRows, c.ArrayCols, c.BitsPerCell, c.NumArrays,
		c.MBPerMM2, c.FreqMHz, c.TotalALUs())
}

// Table III configurations. SRAM uses half the LLC for in-cache
// computing (Section V-A); DRAM is DDR4-2400 with 4 channels, 1 rank, 16
// chips, 16 banks (1,024 computable banks); ReRAM is the 336 MB
// accelerator chip scaled down from IMP.
var (
	// SRAMConfig: 256x256 arrays, 5,120 arrays, 2.5 GHz, 256 bit-serial
	// ALUs per array (1.31 M total).
	SRAMConfig = Config{
		Target: isa.SRAM, ArrayRows: 256, ArrayCols: 256, BitsPerCell: 1,
		NumArrays: 5120, MBPerMM2: 0.6, FreqMHz: 2500, ALUsPerArray: 256,
		MaxJobs: 8,
	}
	// DRAMConfig: 8 KB rows x 8,192 per bank, 1,024 banks, 300 MHz
	// in-memory op rate, 65,536 bitline ALUs per bank (67.1 M total).
	DRAMConfig = Config{
		Target: isa.DRAM, ArrayRows: 8192, ArrayCols: 65536, BitsPerCell: 1,
		NumArrays: 1024, MBPerMM2: 17.5, FreqMHz: 300, ALUsPerArray: 65536,
		MaxJobs: 8,
	}
	// ReRAMConfig: 128x128 crossbars with 2-bit cells, 86,016 arrays,
	// 20 MHz, 16 ALUs per array (1.37 M total) — the 336 MB chip.
	ReRAMConfig = Config{
		Target: isa.ReRAM, ArrayRows: 128, ArrayCols: 128, BitsPerCell: 2,
		NumArrays: 86016, MBPerMM2: 2.5, FreqMHz: 20, ALUsPerArray: 16,
		MaxJobs: 8,
	}
)

// ConfigFor returns the Table III configuration of a target.
func ConfigFor(t isa.Target) Config {
	switch t {
	case isa.SRAM:
		return SRAMConfig
	case isa.DRAM:
		return DRAMConfig
	case isa.ReRAM:
		return ReRAMConfig
	}
	panic("mem: unknown target")
}

// Technology characterises one memory technology for the Figure 1
// landscape: relative energy per access, access delay, and the
// parallelism proxy (sense-amplifier density per unit area).
type Technology struct {
	Name           string
	EnergyPJPerBit float64 // energy per bit accessed
	LatencyNs      float64 // array access latency
	CellSizeF2     float64 // bit-cell area in F^2
	SAShare        float64 // fraction of columns with a private sense amp
}

// Parallelism is the Figure 1 compute-parallelism proxy: available sense
// amplifiers per unit area (higher is better), normalised to DRAM = 1.
func (t Technology) Parallelism() float64 {
	dram := technologies[1]
	self := t.SAShare / t.CellSizeF2
	ref := dram.SAShare / dram.CellSizeF2
	return self / ref
}

var technologies = []Technology{
	{Name: "SRAM", EnergyPJPerBit: 0.03, LatencyNs: 0.4, CellSizeF2: 146, SAShare: 1},
	{Name: "DRAM", EnergyPJPerBit: 0.4, LatencyNs: 45, CellSizeF2: 6, SAShare: 1.0 / 512},
	{Name: "ReRAM", EnergyPJPerBit: 2.0, LatencyNs: 50, CellSizeF2: 4, SAShare: 1.0 / 8},
	{Name: "STT-RAM", EnergyPJPerBit: 1.0, LatencyNs: 35, CellSizeF2: 20, SAShare: 1.0 / 16},
	{Name: "NAND-Flash", EnergyPJPerBit: 5.0, LatencyNs: 25000, CellSizeF2: 1, SAShare: 1.0 / 16384},
}

// Technologies returns the Figure 1 characterisation table sorted by
// name for stable output.
func Technologies() []Technology {
	out := append([]Technology(nil), technologies...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TechnologyByName looks up one Figure 1 row.
func TechnologyByName(name string) (Technology, bool) {
	for _, t := range technologies {
		if t.Name == name {
			return t, true
		}
	}
	return Technology{}, false
}
