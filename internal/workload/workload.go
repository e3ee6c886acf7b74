// Package workload generates the input meshes used throughout the paper's
// analysis and our experiments: uniformly random permutations of 1..N,
// random 0-1 matrices with a prescribed number of zeroes, and the
// adversarial inputs behind the worst-case theorems.
package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/grid"
	"repro/internal/rng"
)

// RandomPermutation returns an R×C grid holding a uniformly random
// permutation of 1..R·C, the paper's random-input model ("all N!
// permutations are equally likely").
func RandomPermutation(src rng.Source, rows, cols int) *grid.Grid {
	g := grid.New(rows, cols)
	RandomPermutationInto(src, g)
	return g
}

// RandomPermutationInto fills g in place with a uniformly random
// permutation of 1..R·C. It draws exactly the values RandomPermutation
// draws, so the harness's per-worker buffer reuse cannot perturb any
// recorded (seed, stream) result.
func RandomPermutationInto(src rng.Source, g *grid.Grid) {
	rng.Perm(src, g.Cells())
}

// RandomZeroOne returns an R×C grid holding a uniformly random 0-1 matrix
// with exactly alpha zeroes (and R·C − alpha ones): the paper's A^01 model.
// It panics if alpha is out of range.
func RandomZeroOne(src rng.Source, rows, cols, alpha int) *grid.Grid {
	g := grid.New(rows, cols)
	RandomZeroOneInto(src, g, alpha)
	return g
}

// RandomZeroOneInto fills g in place with a uniformly random 0-1 matrix
// holding exactly alpha zeroes, drawing exactly the values RandomZeroOne
// draws. It panics if alpha is out of range.
func RandomZeroOneInto(src rng.Source, g *grid.Grid, alpha int) {
	cells := g.Cells()
	n := len(cells)
	if alpha < 0 || alpha > n {
		panic(fmt.Sprintf("workload: alpha=%d out of range for %d cells", alpha, n))
	}
	for i := range cells {
		if i < alpha {
			cells[i] = 0
		} else {
			cells[i] = 1
		}
	}
	rng.Shuffle(src, cells)
}

// HalfZeroOne returns a random 0-1 grid with exactly ⌈N/2⌉ zeroes — the
// projection used for the row-major and first two snakelike analyses
// (α = N/2 for even N; the appendix uses 2n²+2n+1 = ⌈N/2⌉ zeroes for odd
// side lengths √N = 2n+1).
func HalfZeroOne(src rng.Source, rows, cols int) *grid.Grid {
	g := grid.New(rows, cols)
	HalfZeroOneInto(src, g)
	return g
}

// HalfZeroOneInto is the in-place form of HalfZeroOne, for per-worker
// buffer reuse. It draws exactly the values HalfZeroOne draws.
func HalfZeroOneInto(src rng.Source, g *grid.Grid) {
	RandomZeroOneInto(src, g, (g.Len()+1)/2)
}

// HalfZeroOnePacked draws exactly the grid HalfZeroOneInto draws from p
// for a mesh of len(cells) cells and stores it packed: bit f%64 of
// out[f/64] is cell f's value. cells is scratch, one byte per cell, and
// out must hold (len(cells)+63)/64 words; bits past the last cell are
// zero. It builds no int grid: the shuffle runs on bytes with p's state
// in locals, then every 8 bytes fold into one byte of a word with a
// multiply.
func HalfZeroOnePacked(p *rng.PCG64, cells []byte, out []uint64) {
	n := len(cells)
	alpha := (n + 1) / 2
	clear(cells[:alpha])
	for i := alpha; i < n; i++ {
		cells[i] = 1
	}
	p.ShuffleBytes(cells)
	out = out[:(n+63)/64]
	for w := range out {
		chunk := cells[w*64 : min(w*64+64, n)]
		var word uint64
		k := 0
		for ; k+8 <= len(chunk); k += 8 {
			// The bytes are 0 or 1, so the partial products never
			// overlap, and bit j of the product's top byte is byte j.
			word |= binary.LittleEndian.Uint64(chunk[k:]) * 0x0102040810204080 >> 56 << k
		}
		for ; k < len(chunk); k++ {
			word |= uint64(chunk[k]) << k
		}
		out[w] = word
	}
}

// AllZeroColumn returns the 0-1 mesh of Corollary 1: column col consists
// entirely of zeroes and every other cell holds a one. On this input both
// row-major algorithms need at least 2N − 4√N steps.
func AllZeroColumn(rows, cols, col int) *grid.Grid {
	g := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c != col {
				g.Set(r, c, 1)
			}
		}
	}
	return g
}

// SmallestInColumn returns a permutation of 1..R·C in which the smallest R
// values occupy column col (top to bottom) and the remaining values fill
// the other cells in row-major order. This is the paper's §1 worst-case
// shape for the row-major algorithms ("the smallest 2n entries begin in the
// same column").
func SmallestInColumn(rows, cols, col int) *grid.Grid {
	g := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		g.Set(r, col, r+1)
	}
	next := rows + 1
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c == col {
				continue
			}
			g.Set(r, c, next)
			next++
		}
	}
	return g
}

// SortedGrid returns 1..R·C already arranged in target order o.
func SortedGrid(rows, cols int, o grid.Order) *grid.Grid {
	g := grid.New(rows, cols)
	for m := 0; m < rows*cols; m++ {
		r, c := g.RankCell(o, m)
		g.Set(r, c, m+1)
	}
	return g
}

// ReversedGrid returns 1..R·C arranged in the exact reverse of target order
// o (largest value at rank 0).
func ReversedGrid(rows, cols int, o grid.Order) *grid.Grid {
	n := rows * cols
	g := grid.New(rows, cols)
	for m := 0; m < n; m++ {
		r, c := g.RankCell(o, m)
		g.Set(r, c, n-m)
	}
	return g
}

// FewDistinct returns an R×C grid whose cells are drawn uniformly from
// only k distinct values (1..k). Duplicate-heavy inputs exercise the
// multiset completion tracker and the comparator networks' stability under
// ties; the algorithms' step bounds hold unchanged (compare-exchange is
// oblivious to ties).
func FewDistinct(src rng.Source, rows, cols, k int) *grid.Grid {
	if k < 1 {
		panic(fmt.Sprintf("workload: FewDistinct needs k >= 1, got %d", k))
	}
	g := grid.New(rows, cols)
	for i := 0; i < g.Len(); i++ {
		g.SetFlat(i, 1+rng.Intn(src, k))
	}
	return g
}

// PermutationWithSmallestAt returns a permutation of 1..R·C whose value 1
// sits at (r, c), with the remaining values placed uniformly at random.
// Used by the smallest-element path experiments (Theorem 12).
func PermutationWithSmallestAt(src rng.Source, rows, cols, r, c int) *grid.Grid {
	n := rows * cols
	rest := make([]int, n-1)
	// rest is a random permutation of 2..n.
	for i := range rest {
		j := rng.Intn(src, i+1)
		rest[i] = rest[j]
		rest[j] = i + 2
	}
	g := grid.New(rows, cols)
	target := g.Flat(r, c)
	k := 0
	for i := 0; i < n; i++ {
		if i == target {
			g.SetFlat(i, 1)
			continue
		}
		g.SetFlat(i, rest[k])
		k++
	}
	return g
}
