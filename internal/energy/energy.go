// Package energy accounts the energy of MLIMP executions and of the
// CPU/GPU baselines (Figure 14). In-memory compute energy is charged per
// active array-cycle with per-technology constants derived from the
// prior work's published numbers (Neural Cache, Ambit, IMP/ISAAC); data
// movement is charged per byte over the DDR4 interface; static power
// accrues over the makespan.
package energy

import (
	"fmt"

	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

// Constants per target. ArrayCyclePJ is the dynamic energy of one array
// executing one compute cycle (all bitlines switching); StaticW is the
// always-on power of the whole device's periphery.
type Constants struct {
	ArrayCyclePJ float64
	StaticW      float64
}

// PerTarget holds the in-memory energy constants.
//
//   - SRAM: a 256x256 array access is ~20 pJ at 2.5 GHz (Neural Cache
//     reports ~1.1 W per way-slice of arrays).
//   - DRAM: a TRA step activates three 8 KB rows, ~60x an SRAM array
//     cycle per bank-row but at 300 MHz.
//   - ReRAM: analog MAC with ADC dominates: ~150 pJ per crossbar access
//     (ISAAC's ADC-dominated budget scaled to the 128x128 array).
var PerTarget = map[isa.Target]Constants{
	isa.SRAM:  {ArrayCyclePJ: 20, StaticW: 2.0},
	isa.DRAM:  {ArrayCyclePJ: 1200, StaticW: 8.0},
	isa.ReRAM: {ArrayCyclePJ: 150, StaticW: 4.0},
}

// DDRPJPerByte is DRAM interface transfer energy (~15 pJ/bit ≈ consistent
// with DDR4 I/O plus activation amortisation, rounded to bytes).
const DDRPJPerByte = 120.0

// Breakdown is an energy report in joules.
type Breakdown struct {
	ComputeJ  float64
	TransferJ float64
	StaticJ   float64
}

// TotalJ sums the breakdown.
func (b Breakdown) TotalJ() float64 { return b.ComputeJ + b.TransferJ + b.StaticJ }

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%.3gJ transfer=%.3gJ static=%.3gJ total=%.3gJ",
		b.ComputeJ, b.TransferJ, b.StaticJ, b.TotalJ())
}

// OfResult charges a scheduling result: every assignment's active
// array-cycles and DDR traffic, plus static power over the makespan for
// each layer present in the system.
func OfResult(sys *sched.System, res *sched.Result) Breakdown {
	var b Breakdown
	for _, a := range res.Assignments {
		c, ok := PerTarget[a.Target]
		if !ok {
			panic(fmt.Sprintf("energy: no constants for %s", a.Target))
		}
		layer := sys.Layers[a.Target]
		cycles := layer.Cfg.Clock().CyclesAt(a.End - a.Start)
		// Narrow operands switch proportionally fewer bitlines per
		// compute cycle (the byte traffic in the profile is pre-scaled by
		// the job generators, so transfer energy needs no factor here).
		width := 1.0
		if a.Job.Bits > 0 && a.Job.Bits < 16 {
			width = float64(a.Job.Bits) / 16
		}
		b.ComputeJ += float64(cycles) * float64(a.Arrays) * c.ArrayCyclePJ * width * 1e-12
		if p, ok := a.Job.Est.Get(a.Target); ok {
			bytes := p.LoadBytes + p.StoreBytes + p.ProgramBytes*4
			b.TransferJ += float64(bytes) * DDRPJPerByte * 1e-12
		}
	}
	for _, t := range sys.Targets() {
		b.StaticJ += PerTarget[t].StaticW * res.Makespan.Seconds()
	}
	return b
}
