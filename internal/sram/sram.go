// Package sram implements the functional and timing model of in-SRAM
// bit-serial computing (Compute Caches / Neural Cache / Duality Cache,
// Section II-B1). A compute array stores n-bit operands transposed — one
// bit-slice per wordline — and performs arithmetic bit-serially: each
// cycle activates two wordlines, senses BL/BLB per bitline, and latches a
// full-adder result plus carry at the peripheral. Every public operation
// both mutates the simulated bit cells and returns the cycle count of the
// micro-op sequence, which by construction matches the static cost model
// of internal/isa (asserted in tests).
package sram

import (
	"fmt"

	"mlimp/internal/fixed"
)

// WordBits is the operand width. 16-bit fixed point throughout MLIMP.
const WordBits = 16

// Array is one SRAM compute array: Rows wordlines by Cols bitlines of
// single-bit cells. With 256 rows it holds 256/16 = 16 operand slots of
// 256-element vectors.
type Array struct {
	Rows, Cols int
	bits       [][]bool // [row][col]
}

// NewArray builds a zeroed compute array.
func NewArray(rows, cols int) *Array {
	if rows%WordBits != 0 || rows <= 0 || cols <= 0 {
		panic("sram: rows must be a positive multiple of the word width")
	}
	b := make([][]bool, rows)
	for i := range b {
		b[i] = make([]bool, cols)
	}
	return &Array{Rows: rows, Cols: cols, bits: b}
}

// Slots returns the number of vector operand slots in the array.
func (a *Array) Slots() int { return a.Rows / WordBits }

func (a *Array) checkSlot(slot int) {
	if slot < 0 || slot >= a.Slots() {
		panic(fmt.Sprintf("sram: slot %d out of %d", slot, a.Slots()))
	}
}

// StoreVector writes vals transposed into a slot: bit i of element c goes
// to wordline slot*16+i, bitline c. Loading is performed by the cache
// controller, not the compute FSM, so it has no cycle cost here; the
// scheduler accounts data movement via the main-memory model.
func (a *Array) StoreVector(slot int, vals []fixed.Num) {
	a.checkSlot(slot)
	if len(vals) > a.Cols {
		panic("sram: vector wider than array")
	}
	base := slot * WordBits
	for c, v := range vals {
		u := uint16(v)
		for i := 0; i < WordBits; i++ {
			a.bits[base+i][c] = u&(1<<i) != 0
		}
	}
}

// LoadVector reads a slot back as fixed-point values.
func (a *Array) LoadVector(slot int, n int) []fixed.Num {
	a.checkSlot(slot)
	if n > a.Cols {
		panic("sram: read wider than array")
	}
	base := slot * WordBits
	out := make([]fixed.Num, n)
	for c := 0; c < n; c++ {
		var u uint16
		for i := 0; i < WordBits; i++ {
			if a.bits[base+i][c] {
				u |= 1 << i
			}
		}
		out[c] = fixed.Num(u)
	}
	return out
}

// column materialises the bit-slice view of one element for the
// peripheral logic emulation.
func (a *Array) column(slot, col int) [WordBits]bool {
	var w [WordBits]bool
	base := slot * WordBits
	for i := range w {
		w[i] = a.bits[base+i][col]
	}
	return w
}

func (a *Array) setColumn(slot, col int, w [WordBits]bool) {
	base := slot * WordBits
	for i := range w {
		a.bits[base+i][col] = w[i]
	}
}

// Copy copies slot src to dst, one wordline per cycle.
func (a *Array) Copy(dst, src int) int64 {
	a.checkSlot(dst)
	a.checkSlot(src)
	base, sbase := dst*WordBits, src*WordBits
	for i := 0; i < WordBits; i++ {
		copy(a.bits[base+i], a.bits[sbase+i])
	}
	return WordBits
}

// addColumns is the peripheral full-adder walk shared by Add and Sub:
// starting from carry-in, it sweeps bit-slices LSB to MSB, producing the
// two's-complement sum with saturation on signed overflow (overflow is
// detected from the MSB carry pair, and the peripheral mux clamps).
func addColumns(x, y [WordBits]bool, invertY bool, carry bool) [WordBits]bool {
	var sum [WordBits]bool
	for i := 0; i < WordBits; i++ {
		yb := y[i] != invertY // XOR with the inversion control line
		s := x[i] != yb != carry
		cNext := (x[i] && yb) || (x[i] && carry) || (yb && carry)
		if i == WordBits-1 {
			// Signed overflow iff carry into MSB != carry out of MSB. On
			// overflow the corrupted sum MSB is the inverse of the true
			// sign, so s==1 means the true result was positive.
			if carry != cNext {
				return saturated(s)
			}
		}
		sum[i] = s
		carry = cNext
	}
	return sum
}

// saturated returns the bit pattern of MaxNum (positive=true) or MinNum.
func saturated(positive bool) [WordBits]bool {
	var w [WordBits]bool
	if positive {
		for i := 0; i < WordBits-1; i++ {
			w[i] = true
		}
	} else {
		w[WordBits-1] = true
	}
	return w
}

// Add computes dst = a + b over all columns. Cost: one cycle per
// bit-slice (n cycles), the Neural Cache addition sequence.
func (a *Array) Add(dst, x, y int) int64 {
	for c := 0; c < a.Cols; c++ {
		a.setColumn(dst, c, addColumns(a.column(x, c), a.column(y, c), false, false))
	}
	return WordBits
}

// Sub computes dst = x - y via the inverted-operand add with carry-in.
// Cost: n+2 cycles (inversion control setup plus the adder walk).
func (a *Array) Sub(dst, x, y int) int64 {
	for c := 0; c < a.Cols; c++ {
		a.setColumn(dst, c, addColumns(a.column(x, c), a.column(y, c), true, true))
	}
	return WordBits + 2
}

// CmpLT sets dst to 1 where x < y (signed), else 0. Cost n+1.
func (a *Array) CmpLT(dst, x, y int) int64 {
	one := [WordBits]bool{0: true}
	var zero [WordBits]bool
	for c := 0; c < a.Cols; c++ {
		if colSigned(a.column(x, c)) < colSigned(a.column(y, c)) {
			a.setColumn(dst, c, one)
		} else {
			a.setColumn(dst, c, zero)
		}
	}
	return WordBits + 1
}

func colSigned(w [WordBits]bool) int32 {
	var u uint16
	for i, b := range w {
		if b {
			u |= 1 << i
		}
	}
	return int32(int16(u))
}

func colFromInt(v int32) [WordBits]bool {
	var w [WordBits]bool
	u := uint16(int16(v))
	for i := range w {
		w[i] = u&(1<<i) != 0
	}
	return w
}

// Mul computes dst = x * y in the package Q format (round-to-nearest,
// saturating), as a bit-serial shift-and-add of partial products. The
// micro-op sequence is the Neural Cache multiplier: n conditional adds on
// a 2n-bit accumulator plus the rounding shift, n²+3n−2 cycles total.
func (a *Array) Mul(dst, x, y int) int64 {
	for c := 0; c < a.Cols; c++ {
		xv, yv := colSigned(a.column(x, c)), colSigned(a.column(y, c))
		// Sign-magnitude partial-product accumulation over a 32-bit
		// bit-vector accumulator, exactly as the peripheral sequencer
		// does it (two's-complement inputs are pre-negated by the same
		// inverted-add primitive used by Sub).
		neg := (xv < 0) != (yv < 0)
		ax, ay := abs32(xv), abs32(yv)
		var acc [2 * WordBits]bool
		for i := 0; i < WordBits; i++ {
			if ay&(1<<i) == 0 {
				continue // predication row masks this partial product
			}
			carry := false
			for j := 0; j < 2*WordBits; j++ {
				var pb bool
				if j >= i && j-i < WordBits {
					pb = ax&(1<<(j-i)) != 0
				}
				s := acc[j] != pb != carry
				carry = (acc[j] && pb) || (acc[j] && carry) || (pb && carry)
				acc[j] = s
			}
		}
		p := int64(accToUint(acc[:]))
		if neg {
			p = -p
		}
		// Rounding rescale and saturation, matching fixed.Mul.
		p = (p + 1<<(fixed.FracBits-1)) >> fixed.FracBits
		switch {
		case p > int64(fixed.MaxNum):
			p = int64(fixed.MaxNum)
		case p < int64(fixed.MinNum):
			p = int64(fixed.MinNum)
		}
		a.setColumn(dst, c, colFromInt(int32(p)))
	}
	const n = int64(WordBits)
	return n*n + 3*n - 2
}

func abs32(v int32) uint32 {
	if v < 0 {
		return uint32(-int64(v))
	}
	return uint32(v)
}

func accToUint(acc []bool) uint64 {
	var u uint64
	for i, b := range acc {
		if b {
			u |= 1 << uint(i)
		}
	}
	return u
}

// And computes dst = x & y. Multi-row activation produces the AND of two
// cells directly at the sense amp; one extra cycle re-drives the result.
func (a *Array) And(dst, x, y int) int64 {
	return a.logic(dst, x, y, func(p, q bool) bool { return p && q })
}

// Or computes dst = x | y.
func (a *Array) Or(dst, x, y int) int64 {
	return a.logic(dst, x, y, func(p, q bool) bool { return p || q })
}

// Xor computes dst = x ^ y, using the reconfigurable differential sense
// amp of Compute Caches.
func (a *Array) Xor(dst, x, y int) int64 {
	return a.logic(dst, x, y, func(p, q bool) bool { return p != q })
}

func (a *Array) logic(dst, x, y int, f func(p, q bool) bool) int64 {
	for c := 0; c < a.Cols; c++ {
		xw, yw := a.column(x, c), a.column(y, c)
		var out [WordBits]bool
		for i := range out {
			out[i] = f(xw[i], yw[i])
		}
		a.setColumn(dst, c, out)
	}
	return WordBits + 1
}

// Not computes dst = ^x by sensing BLB instead of BL.
func (a *Array) Not(dst, x int) int64 {
	for c := 0; c < a.Cols; c++ {
		w := a.column(x, c)
		for i := range w {
			w[i] = !w[i]
		}
		a.setColumn(dst, c, w)
	}
	return WordBits
}

// ReduceAdd sums the first n elements of a slot with a log-tree of moves
// and adds inside the array and returns the saturating total. Cost:
// ceil(log2 n) stages of a move plus an add.
func (a *Array) ReduceAdd(slot, n int) (fixed.Num, int64) {
	vals := a.LoadVector(slot, n)
	var acc fixed.Num
	for _, v := range vals {
		acc = fixed.Add(acc, v)
	}
	stages := int64(0)
	for v := n - 1; v > 0; v >>= 1 {
		stages++
	}
	return acc, stages * 2 * WordBits
}
