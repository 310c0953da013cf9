package baseline

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPartition(t *testing.T) {
	p, err := NewPartition(0, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells() != 4 {
		t.Fatalf("cells = %d", p.Cells())
	}
	lo, hi := p.Bounds(1)
	if lo != 64 || hi != 128 {
		t.Errorf("Bounds(1) = [%d,%d)", lo, hi)
	}
	if p.Lo() != 0 || p.Hi() != 256 {
		t.Errorf("range = [%d,%d)", p.Lo(), p.Hi())
	}
	if _, err := NewPartition(5, 5, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewPartition(0, 10, 0); err == nil {
		t.Error("zero cells accepted")
	}
}

func TestPartitionCellOf(t *testing.T) {
	p, _ := NewPartition(10, 50, 4) // width 10
	cases := []struct {
		v, cell int
		ok      bool
	}{
		{9, 0, false}, {10, 0, true}, {19, 0, true}, {20, 1, true},
		{49, 3, true}, {50, 0, false},
	}
	for _, c := range cases {
		cell, ok := p.CellOf(c.v)
		if ok != c.ok || (ok && cell != c.cell) {
			t.Errorf("CellOf(%d) = (%d,%v), want (%d,%v)", c.v, cell, ok, c.cell, c.ok)
		}
	}
}

func TestPartitionReplaceAndMerge(t *testing.T) {
	p, _ := NewPartition(0, 100, 4) // cells of width 25
	p.setCounts(0, 100, []int{3, 7, 2, 8})
	// Subdivide [25,50) into [25,30),[30,50).
	if err := p.Replace(25, 50, []int{25, 30, 50}, []int{2, 5}); err != nil {
		t.Fatal(err)
	}
	if p.Cells() != 5 || p.total() != 20 {
		t.Fatalf("cells=%d total=%d", p.Cells(), p.total())
	}
	cell, _ := p.CellOf(35)
	if lo, hi := p.Bounds(cell); lo != 30 || hi != 50 {
		t.Errorf("CellOf(35) bounds [%d,%d)", lo, hi)
	}
	// Merge back.
	if err := p.Merge(25, 50); err != nil {
		t.Fatal(err)
	}
	if p.Cells() != 4 {
		t.Fatalf("cells after merge = %d", p.Cells())
	}
	cell, _ = p.CellOf(30)
	if p.Count(cell) != 7 {
		t.Errorf("merged count = %d, want 7", p.Count(cell))
	}
}

func TestPartitionReplaceValidation(t *testing.T) {
	p, _ := NewPartition(0, 100, 4)
	if err := p.Replace(20, 50, []int{20, 50}, nil); err == nil {
		t.Error("non-aligned range accepted")
	}
	if err := p.Replace(25, 50, []int{25, 40}, nil); err == nil {
		t.Error("bounds not spanning range accepted")
	}
	if err := p.Replace(25, 50, []int{25, 40, 30, 50}, nil); err == nil {
		t.Error("non-increasing bounds accepted")
	}
	if err := p.Replace(25, 50, []int{25, 40, 50}, []int{1}); err == nil {
		t.Error("count length mismatch accepted")
	}
}

func TestPartitionOwningCell(t *testing.T) {
	p, _ := NewPartition(0, 40, 4)
	p.setCounts(0, 40, []int{3, 0, 2, 5})
	idx, below, err := p.OwningCell(4)
	if err != nil || idx != 2 || below != 3 {
		t.Errorf("OwningCell(4) = (%d,%d,%v)", idx, below, err)
	}
	if _, _, err := p.OwningCell(11); err == nil {
		t.Error("rank beyond total accepted")
	}
}

func TestPartitionInnerBounds(t *testing.T) {
	p, _ := NewPartition(0, 100, 4)
	b, err := p.innerBounds(25, 75)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, []int{25, 50, 75}) {
		t.Errorf("innerBounds = %v", b)
	}
}

func TestUnitAndEqualBounds(t *testing.T) {
	if got := unitBounds(3, 6); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Errorf("unitBounds = %v", got)
	}
	if got := EqualBounds(0, 10, 3); !reflect.DeepEqual(got, []int{0, 4, 8, 10}) {
		t.Errorf("EqualBounds = %v", got)
	}
	if got := EqualBounds(0, 2, 64); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("EqualBounds small range = %v", got)
	}
}

// allocReplace is the allocating Replace that rebuilt both slices on
// every splice, kept as the reference for the in-place one.
func allocReplace(p *Partition, lo, hi int, innerBounds, counts []int) error {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	newBounds := append([]int{}, p.bounds[:i]...)
	newBounds = append(newBounds, innerBounds[:len(innerBounds)-1]...)
	newBounds = append(newBounds, p.bounds[j:]...)
	newCounts := append([]int{}, p.counts[:i]...)
	newCounts = append(newCounts, counts...)
	newCounts = append(newCounts, p.counts[j:]...)
	p.bounds, p.counts = newBounds, newCounts
	return nil
}

// allocMerge is the reference Merge: a Replace by one summed cell.
func allocMerge(p *Partition, lo, hi int) error {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	sum := 0
	for c := i; c < j; c++ {
		sum += p.counts[c]
	}
	return allocReplace(p, lo, hi, []int{lo, hi}, []int{sum})
}

// TestPartitionRandomOpsInvariant drives random subdivide/merge cycles
// and checks structural invariants plus count conservation throughout,
// and that the in-place splices leave exactly the bounds and counts of
// the allocating reference after every operation.
func TestPartitionRandomOpsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p, _ := NewPartition(0, 1024, 16)
	vals := make([]int, 300)
	counts := make([]int, 16)
	for i := range vals {
		vals[i] = rng.Intn(1024)
		counts[vals[i]/64]++
	}
	p.setCounts(0, 1024, counts)
	ref := &Partition{bounds: slices.Clone(p.bounds), counts: slices.Clone(p.counts)}

	recount := func(lo, hi int, bounds []int) []int {
		cs := make([]int, len(bounds)-1)
		for _, v := range vals {
			if v >= lo && v < hi {
				for j := 0; j+1 < len(bounds); j++ {
					if v >= bounds[j] && v < bounds[j+1] {
						cs[j]++
						break
					}
				}
			}
		}
		return cs
	}

	var expanded [][2]int
	for op := 0; op < 200; op++ {
		if len(expanded) > 0 && rng.Intn(2) == 0 {
			// Merge a previously expanded region back.
			i := rng.Intn(len(expanded))
			r := expanded[i]
			if err := p.Merge(r[0], r[1]); err != nil {
				t.Fatalf("op %d: merge [%d,%d): %v", op, r[0], r[1], err)
			}
			if err := allocMerge(ref, r[0], r[1]); err != nil {
				t.Fatalf("op %d: reference merge [%d,%d): %v", op, r[0], r[1], err)
			}
			expanded = append(expanded[:i], expanded[i+1:]...)
		} else {
			// Subdivide a random coarse cell.
			idx := rng.Intn(p.Cells())
			lo, hi := p.Bounds(idx)
			if hi-lo < 2 {
				continue
			}
			// Skip cells inside an already expanded region to keep the
			// merge list well formed.
			inside := false
			for _, r := range expanded {
				if lo >= r[0] && hi <= r[1] {
					inside = true
					break
				}
			}
			if inside {
				continue
			}
			nb := EqualBounds(lo, hi, 2+rng.Intn(6))
			if err := p.Replace(lo, hi, nb, recount(lo, hi, nb)); err != nil {
				t.Fatalf("op %d: replace [%d,%d): %v", op, lo, hi, err)
			}
			if err := allocReplace(ref, lo, hi, nb, recount(lo, hi, nb)); err != nil {
				t.Fatalf("op %d: reference replace [%d,%d): %v", op, lo, hi, err)
			}
			expanded = append(expanded, [2]int{lo, hi})
		}
		if !slices.Equal(p.bounds, ref.bounds) || !slices.Equal(p.counts, ref.counts) {
			t.Fatalf("op %d: in-place splice diverged from the reference\n got  %v %v\n want %v %v",
				op, p.bounds, p.counts, ref.bounds, ref.counts)
		}
		// Invariants: total conserved, bounds strictly increasing,
		// every count matches a brute-force tally.
		if p.total() != 300 {
			t.Fatalf("op %d: total = %d", op, p.total())
		}
		for i := 0; i < p.Cells(); i++ {
			lo, hi := p.Bounds(i)
			if hi <= lo {
				t.Fatalf("op %d: empty cell %d", op, i)
			}
			want := 0
			for _, v := range vals {
				if v >= lo && v < hi {
					want++
				}
			}
			if p.Count(i) != want {
				t.Fatalf("op %d: cell [%d,%d) count %d, want %d", op, lo, hi, p.Count(i), want)
			}
		}
	}
}

// TestPartitionCellOfProperty cross-checks CellOf against Bounds.
func TestPartitionCellOfProperty(t *testing.T) {
	p, _ := NewPartition(-100, 412, 13)
	f := func(raw int16) bool {
		v := int(raw) % 600
		cell, ok := p.CellOf(v)
		if v < -100 || v >= 412 {
			return !ok
		}
		if !ok {
			return false
		}
		lo, hi := p.Bounds(cell)
		return lo <= v && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// total returns the sum of all cell counts.
func (p *Partition) total() int {
	t := 0
	for _, c := range p.counts {
		t += c
	}
	return t
}

// innerBounds lists the boundaries of the cells covering [lo, hi),
// which must be cell-aligned.
func (p *Partition) innerBounds(lo, hi int) ([]int, error) {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), p.bounds[i:j+1]...), nil
}

// setCounts overwrites the counts of the cells covering [lo, hi).
func (p *Partition) setCounts(lo, hi int, counts []int) error {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	if len(counts) != j-i {
		return fmt.Errorf("baseline: %d counts for %d cells", len(counts), j-i)
	}
	copy(p.counts[i:j], counts)
	return nil
}

// unitBounds returns the boundary list that splits [lo, hi) into unit
// cells.
func unitBounds(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}
