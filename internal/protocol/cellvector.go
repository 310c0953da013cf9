package protocol

// CellVector is the per-cell count vector behind every per-cell
// convergecast payload (bucket histograms, LCLL's validation deltas): a
// dense count per cell, the sparse set of cells touched since the
// vector was last emptied, and a running count of nonzero cells. Add is
// O(1); Merge and Drain walk only the touched cells and consume their
// source, zeroing each cell they visit. A vector is therefore all-zero
// — counts, marks and touched list — whenever it has been consumed or
// cleared, across its whole backing capacity, so a recycled payload
// needs no O(cells) clear and Reset only re-slices.
type CellVector struct {
	counts  []int32  // dense per-cell counts (bounded by the measurement count); zero outside touched
	marks   []uint64 // bitset of the cells in touched
	touched []int32  // cells added to since the vector was last emptied
	nonzero int      // cells whose count is nonzero
}

// Reset sizes an empty vector to cells cells. The backing storage is
// kept across resets and grows in whole mark words of 64 cells, so a
// payload reused over a partition whose cell count drifts re-grows
// only rarely.
func (v *CellVector) Reset(cells int) {
	if cap(v.counts) >= cells {
		v.counts = v.counts[:cells]
		return
	}
	c := (cells + 63) &^ 63
	v.counts = make([]int32, cells, c)
	v.marks = make([]uint64, c/64)
}

// Nonzero returns the number of cells with a nonzero count.
func (v *CellVector) Nonzero() int { return v.nonzero }

// Add adds d to cell's count.
func (v *CellVector) Add(cell, d int) {
	old := v.counts[cell]
	n := old + int32(d)
	v.counts[cell] = n
	switch {
	case old == 0 && n != 0:
		v.nonzero++
		// A cell that cancelled to zero stays in touched, so only a
		// first touch joins the list.
		if w, m := cell>>6, uint64(1)<<(cell&63); v.marks[w]&m == 0 {
			v.marks[w] |= m
			v.touched = append(v.touched, int32(cell))
		}
	case old != 0 && n == 0:
		v.nonzero--
	}
}

// Merge adds o into v and empties o. o's cells must lie within v's.
func (v *CellVector) Merge(o *CellVector) { o.Drain(v.Add) }

// Drain calls apply once for every nonzero cell, in first-touch order,
// and empties v.
func (v *CellVector) Drain(apply func(cell, count int)) {
	for _, c := range v.touched {
		if d := v.counts[c]; d != 0 {
			apply(int(c), int(d))
			v.counts[c] = 0
		}
		v.marks[c>>6] = 0
	}
	v.touched = v.touched[:0]
	v.nonzero = 0
}

// Clear empties v, walking only its touched cells.
func (v *CellVector) Clear() { v.Drain(func(int, int) {}) }
