package column

import (
	"fmt"

	"cachepart/internal/memory"
)

// PackedVector stores n codes of a fixed bit width contiguously, the
// compressed representation SAP HANA's column scan operates on directly
// (Section II / [7], [8]). Codes may straddle 64-bit word boundaries.
type PackedVector struct {
	bits   uint
	n      int
	words  []uint64
	region memory.Region
}

// NewPackedVector allocates a vector for n codes of the given width.
func NewPackedVector(space *memory.Space, name string, n int, bits uint) (*PackedVector, error) {
	if n < 0 {
		return nil, fmt.Errorf("column: negative length %d", n)
	}
	if bits == 0 || bits > 32 {
		return nil, fmt.Errorf("column: code width %d out of range [1,32]", bits)
	}
	totalBits := uint64(n) * uint64(bits)
	words := (totalBits + 63) / 64
	if words == 0 {
		words = 1
	}
	v := &PackedVector{
		bits:  bits,
		n:     n,
		words: make([]uint64, words),
	}
	v.region = space.Alloc(name+".codes", words*8)
	return v, nil
}

// Len reports the number of codes.
func (v *PackedVector) Len() int { return v.n }

// Bits reports the code width.
func (v *PackedVector) Bits() uint { return v.bits }

// Bytes reports the simulated (and real) storage size.
func (v *PackedVector) Bytes() uint64 { return uint64(len(v.words)) * 8 }

// Region exposes the simulated allocation.
func (v *PackedVector) Region() memory.Region { return v.region }

// Set stores a code at index i. Codes wider than the vector's width
// are rejected as corruption. Unlike Get it does not inline (the
// two-word store of a straddling code alone exceeds the budget); it
// runs when data is loaded, not in the query kernels.
func (v *PackedVector) Set(i int, code uint32) {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
	if uint64(code)>>v.bits != 0 {
		panic(codeError{code, v.bits})
	}
	bitPos := uint64(i) * uint64(v.bits)
	w, off := bitPos>>6, bitPos&63
	mask := uint64(1)<<v.bits - 1
	v.words[w] = v.words[w]&^(mask<<off) | uint64(code)<<off
	if off+uint64(v.bits) > 64 {
		// The code's high bits spill into the low bits of the next word.
		spill := 64 - off
		v.words[w+1] = v.words[w+1]&^(mask>>spill) | uint64(code)>>spill
	}
}

// Get loads the code at index i. It fits the compiler's inlining
// budget, so the per-row loops of the aggregation and join kernels pay
// no call for it.
func (v *PackedVector) Get(i int) uint32 {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
	bitPos := uint64(i) * uint64(v.bits)
	w, off := bitPos>>6, bitPos&63
	val := v.words[w] >> off
	if off+uint64(v.bits) > 64 {
		val |= v.words[w+1] << (64 - off)
	}
	return uint32(val & (1<<v.bits - 1))
}

// indexError and codeError are the panic values of the accessors. A
// small struct formatted only when printed keeps fmt, and a call, off
// Get's path: a call to a formatting helper alone would push Get past
// the inlining budget.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("column: index %d out of %d", e.i, e.n)
}

type codeError struct {
	code uint32
	bits uint
}

func (e codeError) Error() string {
	return fmt.Sprintf("column: code %d exceeds %d bits", e.code, e.bits)
}

// Addr returns the byte address holding the first bit of code i, the
// line a point access touches.
func (v *PackedVector) Addr(i int) memory.Addr {
	bitPos := uint64(i) * uint64(v.bits)
	return v.region.Addr(bitPos / 8 / 8 * 8) // word-aligned byte offset
}

// LineOfRow reports which cache line (0-based within the region) holds
// row i, so scans can detect line boundaries.
func (v *PackedVector) LineOfRow(i int) uint64 {
	bitPos := uint64(i) * uint64(v.bits)
	return bitPos / 8 / memory.LineSize
}

// RowsPerLine reports how many codes fit in one cache line on average;
// at 20 bits that is 25.6, matching the paper's SIMD scan density.
func (v *PackedVector) RowsPerLine() float64 {
	return float64(memory.LineSize*8) / float64(v.bits)
}

// CountInRange counts codes c with lo <= c < hi over rows [from, to),
// the kernel of the compressed column scan. It streams the packed words
// through one 64-bit buffer: each code is shifted out of the buffer,
// which is refilled from the next word only when a code straddles a
// word boundary, so there is no per-code multiply, divide or bounds
// check. The range test is branch-free: with lo < hi, c is in range
// exactly when the 32-bit difference c-lo is below hi-lo, which the
// sign bit of their 64-bit difference reports. An empty row range or
// an empty code range counts 0; a non-empty row range outside
// [0, Len()) panics like Get at the first bad index.
func (v *PackedVector) CountInRange(from, to int, lo, hi uint32) int64 {
	if from >= to {
		return 0
	}
	if uint(from) >= uint(v.n) {
		panic(indexError{from, v.n})
	}
	if to > v.n {
		panic(indexError{v.n, v.n})
	}
	if lo >= hi {
		return 0
	}
	bits := v.bits
	mask := uint64(1)<<bits - 1
	width := uint64(hi - lo)
	words := v.words
	bitPos := uint64(from) * uint64(bits)
	w := bitPos >> 6
	buf := words[w] >> (bitPos & 63) // unconsumed bits, low-aligned
	avail := 64 - uint(bitPos&63)    // how many of buf's bits are valid
	var cnt uint64
	for k := to - from; k > 0; k-- {
		var c uint64
		if avail >= bits {
			c = buf & mask
			buf >>= bits
			avail -= bits
		} else {
			w++
			next := words[w]
			c = (buf | next<<avail) & mask
			buf = next >> (bits - avail)
			avail += 64 - bits
		}
		cnt += (uint64(uint32(c)-lo) - width) >> 63
	}
	return int64(cnt)
}
