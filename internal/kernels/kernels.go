// Package kernels implements the MLIMP kernel mappings of Section III-D:
// GEMM (weight-serialised SIMD mapping for bit-serial memories, 2D
// crossbar mapping for ReRAM), the lookup-based B-stationary SpMM with
// replication, and elementwise Vadd. For each mapping it derives cycle
// counts from first principles over the Table III device geometry — these
// estimates are what the performance predictor learns and what the
// event-driven simulation charges.
package kernels

import (
	"fmt"

	"mlimp/internal/dfg"
	"mlimp/internal/isa"
	"mlimp/internal/mem"
	"mlimp/internal/tensor"
)

// Estimate is the cost of one kernel invocation on one device at one
// allocation size. Compute time is Cycles at the device clock; data
// movement (LoadBytes/StoreBytes through DDR4, ProgramBytes through the
// ReRAM write path) is billed by the scheduler's cost model through the
// closed-form mainmem.Config.StreamTime.
type Estimate struct {
	Target       isa.Target
	Cycles       int64
	LoadBytes    int64
	StoreBytes   int64
	ProgramBytes int64 // ReRAM weight-programming traffic (slow writes)
	Iterations   int   // n_iter when the working set exceeds the allocation
	RepUnit      int   // a_repunit: arrays for one working-set replica
	Replicas     int   // data replicas within the allocation
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%s: %d cycles, ld=%dB st=%dB prog=%dB iter=%d rep=%d",
		e.Target, e.Cycles, e.LoadBytes, e.StoreBytes, e.ProgramBytes, e.Iterations, e.Replicas)
}

func log2ceil(n int) int64 {
	var l int64
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("kernels: division by non-positive")
	}
	return (a + b - 1) / b
}

// elementBytes is the storage of one fixed-point element.
const elementBytes = 2

// SpMM estimates the lookup-based B-stationary SpMM of Section III-D3:
// the dense matrix B (n x f) is partitioned across the allocated arrays;
// each nonzero of the sparse A triggers an f-wide vector MAC (weighted)
// or addition (binary adjacency) on the array holding the referenced B
// row, with buffer arrays accumulating partial sums as a reduction tree.
// Replicating the B slices exposes input-row parallelism.
func SpMM(cfg mem.Config, a *tensor.CSR, f, allocArrays int, weighted bool) Estimate {
	if allocArrays <= 0 {
		panic("kernels: allocation must be positive")
	}
	if f <= 0 || a == nil {
		panic("kernels: bad SpMM operands")
	}
	repUnit, load, store := SpMMFootprint(cfg, a, f)
	est := Estimate{Target: cfg.Target, RepUnit: repUnit, LoadBytes: load, StoreBytes: store}

	iter := 1
	replicas := 1
	arraysPerReplica := allocArrays
	if allocArrays >= repUnit {
		replicas = allocArrays / repUnit
		// Input-row parallelism cannot exceed the number of A rows.
		if replicas > a.Rows {
			replicas = a.Rows
		}
		if replicas < 1 {
			replicas = 1
		}
		arraysPerReplica = repUnit
	} else {
		// Working set does not fit: stream B in n_iter pieces.
		iter = int(ceilDiv(int64(repUnit), int64(allocArrays)))
	}
	est.Iterations = iter
	est.Replicas = replicas

	est.Cycles = spmmComputeCycles(cfg, a, f, arraysPerReplica, replicas, weighted)
	// Replication copies: the B working set fans out across arrays in a
	// doubling tree (1->2->4->...), each round moving the rows of one
	// replica with row-wide in-memory moves.
	if replicas > 1 {
		rowsPerArray := cfg.ArrayBytes() / (int64(f) * elementBytes)
		if rowsPerArray < 1 {
			rowsPerArray = 1
		}
		copyOps := ceilDiv(int64(a.Cols), rowsPerArray) * log2ceil(replicas)
		est.Cycles += copyOps * isa.Models(cfg.Target).OpCycles(dfg.OpMov, 1)
	}
	return est
}

// SpMMFootprint is the allocation-independent part of SpMM's estimate:
// repUnit, the arrays that hold one replica of B (n rows of f
// elements), and the DDR traffic. Input traffic is B loaded once
// (B-stationary) plus the sparse A stream; replication copies happen
// inside the memory and are billed as compute cycles. Output is one
// f-wide row per A row. Unlike SpMM it does not walk A's rows.
func SpMMFootprint(cfg mem.Config, a *tensor.CSR, f int) (repUnit int, load, store int64) {
	bBytes := int64(a.Cols) * int64(f) * elementBytes
	repUnit = max(int(ceilDiv(bBytes, cfg.ArrayBytes())), 1)
	return repUnit, bBytes + a.SizeBytes(), int64(a.Rows) * int64(f) * elementBytes
}

// SpMMUnit estimates SpMM at the unit allocation a_repunit — exactly one
// replica of the B working set — which is the operating point the
// performance predictor learns (t_cmpt(x, a_repunit), Section III-C3).
func SpMMUnit(cfg mem.Config, a *tensor.CSR, f int, weighted bool) Estimate {
	repUnit, _, _ := SpMMFootprint(cfg, a, f)
	return SpMM(cfg, a, f, repUnit, weighted)
}

// spmmComputeCycles walks A's rows, assigning them round-robin to
// replicas; each replica processes its rows serially while replicas run
// in parallel (input-row parallelism).
func spmmComputeCycles(cfg mem.Config, a *tensor.CSR, f, arraysPerReplica, replicas int, weighted bool) int64 {
	model := isa.Models(cfg.Target)
	perReplica := make([]int64, replicas)

	if cfg.Target == isa.ReRAM {
		// Lookup rows feed the analog crossbar: all k_r referenced B
		// rows accumulate in one multi-operand dot per <=ArrayRows
		// operands, f/ALUsPerArray column groups wide.
		colGroups := ceilDiv(int64(f), int64(cfg.ALUsPerArray))
		for r := 0; r < a.Rows; r++ {
			k := int64(a.RowNNZ(r))
			if k == 0 {
				continue
			}
			cyc := model.OpCycles(dfg.OpDot, int(k)) * colGroups
			perReplica[r%replicas] += cyc
		}
	} else {
		// Bit-serial memories: one f-wide MAC (or add) per nonzero. The
		// looked-up B rows are scattered over the replica's arrays, so
		// up to arraysPerReplica lookups proceed concurrently; partial
		// sums merge through buffer arrays in a log tree.
		var op int64
		if weighted {
			op = model.OpCycles(dfg.OpMul, 1) + model.OpCycles(dfg.OpAdd, 1)
		} else {
			op = model.OpCycles(dfg.OpAdd, 1)
		}
		add := model.OpCycles(dfg.OpAdd, 1)
		// f-wide vectors may exceed one array's lanes.
		laneWaves := ceilDiv(int64(f), int64(cfg.ALUsPerArray))
		p := int64(arraysPerReplica)
		for r := 0; r < a.Rows; r++ {
			k := int64(a.RowNNZ(r))
			if k == 0 {
				continue
			}
			conc := min64(k, p)
			cyc := ceilDiv(k, p)*op*laneWaves + log2ceil(int(conc))*add
			perReplica[r%replicas] += cyc
		}
	}
	var maxCyc int64
	for _, c := range perReplica {
		if c > maxCyc {
			maxCyc = c
		}
	}
	return maxCyc
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// GEMM estimates X (r x k) times W (k x c) under the Section III-D2
// mapping. Bit-serial targets serialise W into the top registers of the
// SIMD slots and duplicate each input row per output column: all r*k*c
// scalar multiplies proceed wave-parallel across the allocated lanes,
// followed by a log-depth reduction over k. ReRAM programs W into
// crossbar columns once and streams input rows through analog dots.
func GEMM(cfg mem.Config, r, k, c, allocArrays int) Estimate {
	if allocArrays <= 0 || r <= 0 || k <= 0 || c <= 0 {
		panic("kernels: bad GEMM shape or allocation")
	}
	est := Estimate{Target: cfg.Target, Iterations: 1, Replicas: 1}
	model := isa.Models(cfg.Target)

	xBytes := int64(r) * int64(k) * elementBytes
	wBytes := int64(k) * int64(c) * elementBytes
	est.LoadBytes = xBytes + wBytes
	est.StoreBytes = int64(r) * int64(c) * elementBytes

	if cfg.Target == isa.ReRAM {
		// W occupies ceil(k/128) x c logical columns; replicate across
		// the allocation for row parallelism.
		kGroups := ceilDiv(int64(k), int64(cfg.ArrayRows))
		colsNeeded := kGroups * int64(c)
		totalALUs := int64(allocArrays) * int64(cfg.ALUsPerArray)
		repUnit := int(ceilDiv(colsNeeded, int64(cfg.ALUsPerArray)))
		if repUnit == 0 {
			repUnit = 1
		}
		est.RepUnit = repUnit
		replicas := int(totalALUs / colsNeeded)
		if replicas < 1 {
			replicas = 1
		}
		est.Replicas = replicas
		est.ProgramBytes = wBytes // one-time crossbar programming
		dots := int64(r) * int64(c) * kGroups
		waves := ceilDiv(dots, int64(replicas)*colsNeeded)
		est.Cycles = waves * model.OpCycles(dfg.OpDot, min(k, cfg.ArrayRows))
		return est
	}

	// Bit-serial mapping: lanes hold (input element, weight) pairs; one
	// input row needs k*c lanes.
	lanesPerRow := int64(k) * int64(c)
	totalLanes := int64(allocArrays) * int64(cfg.ALUsPerArray)
	est.RepUnit = int(ceilDiv(lanesPerRow, int64(cfg.ALUsPerArray)))
	rowsPerWave := totalLanes / lanesPerRow
	var waves int64
	if rowsPerWave >= 1 {
		waves = ceilDiv(int64(r), rowsPerWave)
	} else {
		// One row does not fit: split columns across waves.
		waves = int64(r) * ceilDiv(lanesPerRow, totalLanes)
	}
	perWave := model.OpCycles(dfg.OpMul, 1) + log2ceil(k)*model.OpCycles(dfg.OpAdd, 1)
	est.Cycles = waves * perWave
	return est
}

// Vadd estimates the elementwise addition of two vectors of n elements.
func Vadd(cfg mem.Config, n, allocArrays int) Estimate {
	if allocArrays <= 0 || n <= 0 {
		panic("kernels: bad Vadd size or allocation")
	}
	model := isa.Models(cfg.Target)
	lanes := int64(allocArrays) * int64(cfg.ALUsPerArray)
	waves := ceilDiv(int64(n), lanes)
	// Working set: two operand vectors and the result.
	repUnit := int(ceilDiv(3*int64(n)*elementBytes, cfg.ArrayBytes()))
	if repUnit == 0 {
		repUnit = 1
	}
	return Estimate{
		Target:     cfg.Target,
		Cycles:     waves * model.OpCycles(dfg.OpAdd, 1),
		LoadBytes:  2 * int64(n) * elementBytes,
		StoreBytes: int64(n) * elementBytes,
		Iterations: 1, RepUnit: repUnit, Replicas: 1,
	}
}

// ReuseStats compares the SpMM reuse patterns of Figure 9.
type ReuseStats struct {
	LoadBytes     int64
	ComputeCycles int64
}

// ReuseCompare returns the cost of B-stationary versus C-stationary SpMM
// data orchestration on one device (Section III-D3: B-stationary loads B
// once and updates outputs atomically; C-stationary re-streams A per
// B-column tile and performs lengthy null-padded reductions).
func ReuseCompare(cfg mem.Config, a *tensor.CSR, f, allocArrays int) (bStat, cStat ReuseStats) {
	model := isa.Models(cfg.Target)
	est := SpMM(cfg, a, f, allocArrays, true)
	bStat = ReuseStats{LoadBytes: est.LoadBytes, ComputeCycles: est.Cycles * int64(est.Iterations)}

	// C-stationary: outputs resident; A is re-loaded for every B column
	// tile that fits the allocation, and each output row reduces over
	// the full padded column range (nulls included).
	bBytes := int64(a.Cols) * int64(f) * elementBytes
	tiles := ceilDiv(bBytes, int64(allocArrays)*cfg.ArrayBytes())
	if tiles < 1 {
		tiles = 1
	}
	cStat.LoadBytes = bBytes + a.SizeBytes()*tiles
	// Dense-ified reduction: every output row walks all a.Cols partials.
	op := model.OpCycles(dfg.OpMul, 1) + model.OpCycles(dfg.OpAdd, 1)
	lanes := int64(allocArrays) * int64(cfg.ALUsPerArray)
	macs := int64(a.Rows) * int64(a.Cols) * int64(f)
	cStat.ComputeCycles = ceilDiv(macs, lanes) * op
	return bStat, cStat
}
