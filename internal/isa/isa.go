// Package isa implements the backend compilers of the MLIMP frontend:
// one instruction-set cost model per in-memory substrate, lowering and
// legalisation from the common SIMD DFG (internal/dfg), and static cycle
// analysis ("performing static analysis to obtain the execution time for
// each code block", Section III-D1).
//
// Cycle counts are anchored to the paper's Table III and the cited prior
// work:
//
//   - SRAM (Neural Cache / Duality Cache): bit-serial, n-bit add in n
//     cycles, multiply in n²+3n−2 cycles (= 302 for n=16, exactly the
//     Table III "cycles/op (2ops)" figure for SRAM).
//   - DRAM (Ambit): the same bit-serial sequences built from triple-row
//     activations; each elementary step costs ~5 row activations (copy
//     operands to compute rows, TRA, restore), giving 5× the SRAM cycle
//     count — 1510 cycles per MAC, again matching Table III.
//   - ReRAM (IMP/ISAAC): bit-parallel analog crossbar; a MAC costs 8
//     cycles regardless of how many operand pairs accumulate on a bitline
//     (Kirchhoff accumulation), matching the 2.500 MOPS at 20 MHz and the
//     equal "(2ops)" and "(4ops)" throughput columns.
package isa

import (
	"fmt"
	"sort"
	"strings"

	"mlimp/internal/dfg"
)

// Target identifies an in-memory compilation target.
type Target uint8

// Compilation targets.
const (
	SRAM Target = iota
	DRAM
	ReRAM
	numTargets
)

// NumTargets is the number of compilation targets — the length of any
// dense per-target array indexed by Target.
const NumTargets = int(numTargets)

// Targets lists all compilation targets.
var Targets = []Target{SRAM, DRAM, ReRAM}

// String names the target.
func (t Target) String() string {
	switch t {
	case SRAM:
		return "SRAM"
	case DRAM:
		return "DRAM"
	case ReRAM:
		return "ReRAM"
	}
	return fmt.Sprintf("target(%d)", uint8(t))
}

// ParseTargets resolves a comma-separated layer list such as
// "sram,dram" to targets in list order; names are case-insensitive and
// may be padded with spaces.
func ParseTargets(spec string) ([]Target, error) {
	var targets []Target
	for _, name := range strings.Split(spec, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "sram":
			targets = append(targets, SRAM)
		case "dram":
			targets = append(targets, DRAM)
		case "reram":
			targets = append(targets, ReRAM)
		default:
			return nil, fmt.Errorf("unknown layer %q", name)
		}
	}
	return targets, nil
}

// WordBits is the operand width of the common programming interface.
const WordBits = 16

// CostModel gives per-operation cycle counts for one target.
type CostModel struct {
	Target Target
	// bitSerial indicates the bit-serial execution style (SRAM/DRAM)
	// where Dot legalises into sequential MACs.
	bitSerial bool
	// stepFactor scales elementary bit-serial steps (1 for SRAM, 5 for
	// DRAM's TRA sequences).
	stepFactor int64
	// laneCount is the number of SIMD lanes that one reduction tree
	// spans (the per-array ALU count), setting reduction depth.
	laneCount int
}

// Models returns the cost model for a target.
func Models(t Target) *CostModel {
	switch t {
	case SRAM:
		return &CostModel{Target: SRAM, bitSerial: true, stepFactor: 1, laneCount: 256}
	case DRAM:
		return &CostModel{Target: DRAM, bitSerial: true, stepFactor: 5, laneCount: 65536}
	case ReRAM:
		return &CostModel{Target: ReRAM, bitSerial: false, stepFactor: 1, laneCount: 16}
	}
	panic("isa: unknown target")
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int64 {
	var l int64
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// OpCycles returns the cycle cost of executing op once across the full
// SIMD vector (one element per lane). dotPairs is the operand-pair count
// for OpDot and ignored otherwise.
func (m *CostModel) OpCycles(op dfg.Op, dotPairs int) int64 {
	const n = WordBits
	if m.bitSerial {
		c := m.bitSerialCycles(op, dotPairs)
		return c * m.stepFactor
	}
	return m.reramCycles(op, dotPairs)
}

// bitSerialCycles is the SRAM-unit cost of the bit-serial sequences; the
// DRAM factor is applied by the caller.
func (m *CostModel) bitSerialCycles(op dfg.Op, dotPairs int) int64 {
	const n = int64(WordBits)
	mul := n*n + 3*n - 2 // 302 for n=16
	switch op {
	case dfg.OpConst, dfg.OpInput:
		return 0 // materialised by the loader, not the compute FSM
	case dfg.OpMov, dfg.OpNot, dfg.OpShl, dfg.OpShr:
		return n
	case dfg.OpAnd, dfg.OpOr, dfg.OpXor:
		return n + 1
	case dfg.OpAdd:
		return n
	case dfg.OpSub, dfg.OpSelect:
		return n + 2
	case dfg.OpCmpLT, dfg.OpCmpEQ:
		return n + 1
	case dfg.OpMin, dfg.OpMax:
		return 2*n + 3 // compare then predicated copy
	case dfg.OpMul:
		return mul
	case dfg.OpDiv:
		// Two-pass non-restoring bit-serial division, ~2x multiply.
		return 2 * mul
	case dfg.OpExp2:
		// 32-entry LUT select plus one multiply and alignment adds.
		return mul + 2*n
	case dfg.OpDot:
		// No multi-operand support: one sequential MAC per pair.
		return int64(dotPairs) * mul
	case dfg.OpReduceAdd:
		return log2ceil(m.laneCount) * 2 * n
	case dfg.OpReduceMax:
		return log2ceil(m.laneCount) * (3*n + 3)
	}
	panic(fmt.Sprintf("isa: no bit-serial lowering for %s", op))
}

// reramCycles is the bit-parallel crossbar cost.
func (m *CostModel) reramCycles(op dfg.Op, dotPairs int) int64 {
	switch op {
	case dfg.OpConst, dfg.OpInput:
		return 0
	case dfg.OpMov, dfg.OpShl, dfg.OpShr:
		return 1
	case dfg.OpAdd, dfg.OpSub, dfg.OpCmpLT, dfg.OpCmpEQ,
		dfg.OpAnd, dfg.OpOr, dfg.OpXor, dfg.OpNot, dfg.OpSelect:
		return 2 // one crossbar access plus LUT/peripheral pass
	case dfg.OpMin, dfg.OpMax:
		return 3
	case dfg.OpMul:
		return 8
	case dfg.OpDiv:
		return 64 // LUT-seeded iterative divide (compiler legalisation)
	case dfg.OpExp2:
		return 12
	case dfg.OpDot:
		// Analog accumulation: all pairs sharing a bitline sum in one
		// 8-cycle access; beyond the crossbar height it serialises.
		const crossbarRows = 128
		groups := (int64(dotPairs) + crossbarRows - 1) / crossbarRows
		return groups * 8
	case dfg.OpReduceAdd:
		return log2ceil(m.laneCount) * 2
	case dfg.OpReduceMax:
		return log2ceil(m.laneCount) * 3
	}
	panic(fmt.Sprintf("isa: no crossbar lowering for %s", op))
}

// Instr is one lowered instruction with its static cycle cost.
type Instr struct {
	Op     dfg.Op
	Cycles int64
}

// Program is a kernel cross-compiled for one target.
type Program struct {
	Name   string
	Target Target
	Instrs []Instr
	// Cycles is the static per-invocation cycle count: executing the
	// whole kernel once with one element per SIMD lane.
	Cycles int64
	// Mix counts lowered instructions per op.
	Mix map[dfg.Op]int
}

// Compile lowers a DFG kernel for the target and returns the program with
// its static cycle analysis. Compile fails if the graph is invalid.
func Compile(g *dfg.Graph, t Target) (*Program, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := Models(t)
	p := &Program{Name: g.Name, Target: t, Mix: make(map[dfg.Op]int)}
	for _, n := range g.Nodes() {
		pairs := len(n.Args) / 2
		c := m.OpCycles(n.Op, pairs)
		if c == 0 && (n.Op == dfg.OpConst || n.Op == dfg.OpInput) {
			continue // loader-materialised, no compute instruction
		}
		p.Instrs = append(p.Instrs, Instr{Op: n.Op, Cycles: c})
		p.Cycles += c
		p.Mix[n.Op]++
	}
	return p, nil
}

// CompileAll lowers a kernel for every target.
func CompileAll(g *dfg.Graph) (map[Target]*Program, error) {
	out := make(map[Target]*Program, len(Targets))
	for _, t := range Targets {
		p, err := Compile(g, t)
		if err != nil {
			return nil, err
		}
		out[t] = p
	}
	return out, nil
}

// String renders the program header and instruction count.
func (p *Program) String() string {
	return fmt.Sprintf("%s@%s: %d instrs, %d cycles/invocation", p.Name, p.Target, len(p.Instrs), p.Cycles)
}

// Disassemble renders the lowered instruction stream.
func (p *Program) Disassemble() string {
	out := fmt.Sprintf("; %s\n", p)
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%4d: %-12s ; %d cycles\n", i, in.Op, in.Cycles)
	}
	return out
}

// MixString renders the instruction mix sorted by op for stable output.
func (p *Program) MixString() string {
	type kv struct {
		op dfg.Op
		n  int
	}
	var items []kv
	for op, n := range p.Mix {
		items = append(items, kv{op, n})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].op < items[j].op })
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%s:%d ", it.op, it.n)
	}
	return s
}
