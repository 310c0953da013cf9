package mathx

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKthSmallestBasic(t *testing.T) {
	vs := []int{5, 1, 4, 2, 3}
	for k := 1; k <= 5; k++ {
		if got := KthSmallest(vs, k); got != k {
			t.Errorf("KthSmallest(k=%d) = %d, want %d", k, got, k)
		}
	}
	// Input must not be mutated.
	if !reflect.DeepEqual(vs, []int{5, 1, 4, 2, 3}) {
		t.Errorf("KthSmallest mutated its input: %v", vs)
	}
}

func TestKthSmallestDuplicates(t *testing.T) {
	vs := []int{3, 3, 3, 3, 103}
	if got := KthSmallest(vs, 2); got != 3 {
		t.Errorf("median of paper example = %d, want 3", got)
	}
	if got := KthSmallest(vs, 5); got != 103 {
		t.Errorf("max = %d, want 103", got)
	}
}

func TestKthSmallestPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KthSmallest(k=%d) should panic", k)
				}
			}()
			KthSmallest([]int{1, 2, 3}, k)
		}()
	}
}

// TestQuickselectAgainstSort is the core property test: for random
// slices and ranks, quickselect must agree with full sorting.
func TestQuickselectAgainstSort(t *testing.T) {
	f := func(vs []int, rawK int) bool {
		if len(vs) == 0 {
			return true
		}
		k := absInt(rawK)%len(vs) + 1
		want := append([]int(nil), vs...)
		sort.Ints(want)
		return KthSmallest(vs, k) == want[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickselectEqualHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		vs := make([]int, n)
		for i := range vs {
			vs[i] = rng.Intn(3) // many duplicates
		}
		want := append([]int(nil), vs...)
		sort.Ints(want)
		k := 1 + rng.Intn(n)
		if got := KthSmallest(vs, k); got != want[k-1] {
			t.Fatalf("trial %d: KthSmallest(%d)=%d want %d", trial, k, got, want[k-1])
		}
	}
}

func TestMedianIntsConvention(t *testing.T) {
	// Odd length: n=5 -> k=2? No: k = n/2 = 2 for n=5 is the paper's
	// floor convention. Verify against the formula directly.
	cases := []struct {
		vs   []int
		want int
	}{
		{[]int{1}, 1},
		{[]int{1, 2}, 1},          // k = 1
		{[]int{1, 2, 3}, 1},       // k = ⌊3/2⌋ = 1
		{[]int{1, 2, 3, 4}, 2},    // k = 2
		{[]int{5, 5, 5, 9, 9}, 5}, // duplicates
	}
	for _, c := range cases {
		if got := MedianInts(c.vs); got != c.want {
			t.Errorf("MedianInts(%v) = %d, want %d", c.vs, got, c.want)
		}
	}
}

func TestMinMaxCounts(t *testing.T) {
	vs := []int{4, -2, 4, 9, 0}
	if CountLess(vs, 4) != 2 {
		t.Errorf("CountLess(4) = %d, want 2", CountLess(vs, 4))
	}
	if CountEqual(vs, 4) != 2 {
		t.Errorf("CountEqual(4) = %d, want 2", CountEqual(vs, 4))
	}
}

func TestClampCeilDiv(t *testing.T) {
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(0, 5) != 0 {
		t.Error("CeilDiv misbehaves")
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
