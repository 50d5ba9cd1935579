// Package dram implements the functional and timing model of in-DRAM
// charge-sharing computation (Ambit, Section II-B2). A Bank exposes the
// three hardware primitives — RowClone copy, triple-row activation (TRA,
// a 3-input majority gate across vertically aligned cells), and the
// dual-contact NOT row — and builds AND/OR/XOR and a bit-serial
// ripple-carry adder from them, demonstrating functional completeness of
// {TRA, NOT} exactly as the paper argues.
//
// Every operation counts row activations; an elementary bit step costs
// ~5 activations (two operand copies into the designated compute rows,
// the TRA itself, and result copy-out), which is where the 5x cycle
// factor of the DRAM column of Table III comes from.
package dram

import (
	"fmt"

	"mlimp/internal/fixed"
)

// WordBits is the operand width (16-bit fixed point).
const WordBits = 16

// Bank is one computable DRAM bank: Rows word-lines of Cols single-bit
// cells, plus the Ambit compute rows (three TRA rows T0-T2, a control row
// C, and a dual-contact row D) modelled separately.
type Bank struct {
	Rows, Cols  int
	cells       [][]bool
	t           [3][]bool // TRA compute rows
	d           []bool    // dual-contact (NOT) row
	activations int64
}

// NewBank builds a zeroed bank.
func NewBank(rows, cols int) *Bank {
	if rows <= 0 || cols <= 0 {
		panic("dram: bank dimensions must be positive")
	}
	b := &Bank{Rows: rows, Cols: cols, cells: make([][]bool, rows)}
	for i := range b.cells {
		b.cells[i] = make([]bool, cols)
	}
	for i := range b.t {
		b.t[i] = make([]bool, cols)
	}
	b.d = make([]bool, cols)
	return b
}

// Activations returns the cumulative row-activation count, the cost
// metric of all in-DRAM computing.
func (b *Bank) Activations() int64 { return b.activations }

// ResetActivations zeroes the activation counter (between measurements).
func (b *Bank) ResetActivations() { b.activations = 0 }

func (b *Bank) row(r int) []bool {
	if r < 0 || r >= b.Rows {
		panic(fmt.Sprintf("dram: row %d out of %d", r, b.Rows))
	}
	return b.cells[r]
}

// WriteRow stores a bit pattern through the DDR interface (not counted
// as a compute activation; data movement is billed by internal/mainmem).
func (b *Bank) WriteRow(r int, bits []bool) {
	copy(b.row(r), bits)
}

// ReadRow returns a copy of a row.
func (b *Bank) ReadRow(r int) []bool {
	return append([]bool(nil), b.row(r)...)
}

// RowClone copies row src to row dst in one back-to-back activation pair
// (counted as one compute activation step).
func (b *Bank) RowClone(dst, src int) {
	copy(b.row(dst), b.row(src))
	b.activations++
}

// cloneToT copies a data row into TRA row i.
func (b *Bank) cloneToT(i, src int) {
	copy(b.t[i], b.row(src))
	b.activations++
}

// cloneFromT copies TRA row i out to a data row.
func (b *Bank) cloneFromT(i, dst int) {
	copy(b.row(dst), b.t[i])
	b.activations++
}

// setControl fills TRA row 2 (the control row C) with a constant.
func (b *Bank) setControl(v bool) {
	for i := range b.t[2] {
		b.t[2][i] = v
	}
	b.activations++
}

// TRA performs the triple-row activation: all three compute rows settle
// to the majority of their previous contents (charge sharing).
func (b *Bank) TRA() {
	for c := 0; c < b.Cols; c++ {
		maj := majority(b.t[0][c], b.t[1][c], b.t[2][c])
		b.t[0][c], b.t[1][c], b.t[2][c] = maj, maj, maj
	}
	b.activations++
}

func majority(a, b, c bool) bool {
	n := 0
	if a {
		n++
	}
	if b {
		n++
	}
	if c {
		n++
	}
	return n >= 2
}

// Not computes dst = ^src through the dual-contact row.
func (b *Bank) Not(dst, src int) {
	s, d := b.row(src), b.row(dst)
	for c := range s {
		b.d[c] = !s[c]
	}
	copy(d, b.d)
	b.activations += 2 // activate into dual-contact cell, copy out
}

// And computes dst = r1 & r2 via TRA with control 0. The 5-activation
// sequence (2 operand clones, control set, TRA, copy-out) is the
// elementary bit step of all in-DRAM arithmetic.
func (b *Bank) And(dst, r1, r2 int) {
	b.cloneToT(0, r1)
	b.cloneToT(1, r2)
	b.setControl(false)
	b.TRA()
	b.cloneFromT(0, dst)
}

// Or computes dst = r1 | r2 via TRA with control 1.
func (b *Bank) Or(dst, r1, r2 int) {
	b.cloneToT(0, r1)
	b.cloneToT(1, r2)
	b.setControl(true)
	b.TRA()
	b.cloneFromT(0, dst)
}

// Xor computes dst = r1 ^ r2 from the charge-sharing primitives:
// a^b = (a|b) & ~(a&b). It needs two scratch rows s1, s2.
func (b *Bank) Xor(dst, r1, r2, s1, s2 int) {
	b.And(s1, r1, r2)
	b.Not(s1, s1)
	b.Or(s2, r1, r2)
	b.And(dst, s1, s2)
}

// Word layout: like in-SRAM computing, operands are stored transposed,
// one bit-slice per row, LSB first (Section III-B1: "Binary bit-serial
// computing with bit transposed data is employed for in-SRAM and in-DRAM
// computing").

// StoreVector writes vals transposed starting at row base.
func (b *Bank) StoreVector(base int, vals []fixed.Num) {
	if len(vals) > b.Cols {
		panic("dram: vector wider than bank row")
	}
	for i := 0; i < WordBits; i++ {
		row := b.row(base + i)
		for c, v := range vals {
			row[c] = uint16(v)&(1<<i) != 0
		}
	}
}

// LoadVector reads n transposed values starting at row base.
func (b *Bank) LoadVector(base, n int) []fixed.Num {
	if n > b.Cols {
		panic("dram: read wider than bank row")
	}
	out := make([]fixed.Num, n)
	for i := 0; i < WordBits; i++ {
		row := b.row(base + i)
		for c := 0; c < n; c++ {
			if row[c] {
				out[c] |= 1 << i
			}
		}
	}
	return out
}

// Add computes the transposed word region at dst = x + y (wrapping
// two's-complement, as raw Ambit arithmetic has no saturation peripheral)
// using a ripple-carry adder built purely from TRA/NOT sequences. x, y,
// dst are base rows of 16-row word regions; scratch is the base of a
// 4-row scratch region.
func (b *Bank) Add(dst, x, y, scratch int) {
	carry := scratch // carry row
	s1, s2 := scratch+1, scratch+2
	axb := scratch + 3 // a^b row
	// Clear carry: carry = x & ~x.
	b.Not(s1, x)
	b.And(carry, x, s1)
	for i := 0; i < WordBits; i++ {
		xi, yi, di := x+i, y+i, dst+i
		// sum = (x^y) ^ carry first: the XOR sequences reuse the TRA
		// compute rows, so the carry majority must come afterwards.
		b.Xor(axb, xi, yi, s1, s2)
		b.Xor(di, axb, carry, s1, s2)
		// carryNext = majority(x, y, carry): one TRA directly.
		b.cloneToT(0, xi)
		b.cloneToT(1, yi)
		b.cloneToT(2, carry)
		b.TRA()
		b.cloneFromT(0, carry)
	}
}

// AddVectors is the convenience wrapper: store, add, load, returning the
// result values and the activation count of the compute sequence alone.
func (b *Bank) AddVectors(x, y []fixed.Num) ([]fixed.Num, int64) {
	if len(x) != len(y) {
		panic("dram: length mismatch")
	}
	b.StoreVector(0, x)
	b.StoreVector(WordBits, y)
	start := b.activations
	b.Add(2*WordBits, 0, WordBits, 3*WordBits)
	cost := b.activations - start
	return b.LoadVector(2*WordBits, len(x)), cost
}
