package mathx

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// KthSmallest returns the k-th smallest element (1-based rank) of vs
// without fully sorting it. It panics if k is out of [1, len(vs)].
// The input slice is not modified.
func KthSmallest[T cmp.Ordered](vs []T, k int) T {
	return Select(slices.Clone(vs), k)
}

// Select is KthSmallest for a caller that owns a scratch buffer: it
// returns the k-th smallest element (1-based rank) of buf, reordering
// buf in place instead of copying it. It panics if k is out of
// [1, len(buf)].
func Select[T cmp.Ordered](buf []T, k int) T {
	if k < 1 || k > len(buf) {
		panic(fmt.Sprintf("mathx: rank %d out of range for %d values", k, len(buf)))
	}
	return quickselect(buf, k-1)
}

// QuantileFloat64 returns the p-quantile (0 ≤ p ≤ 1) of vs using the
// nearest-rank definition k = max(1, ⌈p·n⌉) — the same 1-based rank
// convention the sensor protocols answer, so telemetry percentiles and
// protocol quantiles always agree on what "p95" means. It panics on an
// empty slice or p outside [0, 1].
func QuantileFloat64(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		panic("mathx: quantile of empty slice")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("mathx: quantile fraction %v out of [0,1]", p))
	}
	k := int(math.Ceil(p * float64(len(vs))))
	if k < 1 {
		k = 1
	}
	if k > len(vs) {
		k = len(vs)
	}
	return KthSmallest(vs, k)
}

// quickselect returns the element that would be at index i of the
// sorted slice, reordering buf in place. Median-of-three pivoting keeps
// the expected running time linear; a fallback to sorting guards
// against adversarial degradation on equal-heavy inputs.
func quickselect[T cmp.Ordered](buf []T, i int) T {
	lo, hi := 0, len(buf)-1
	for depth := 0; ; depth++ {
		if lo == hi {
			return buf[lo]
		}
		if depth > 64 {
			slices.Sort(buf[lo : hi+1])
			return buf[i]
		}
		p := medianOfThree(buf, lo, hi)
		lt, gt := threeWayPartition(buf, lo, hi, p)
		switch {
		case i < lt:
			hi = lt - 1
		case i > gt:
			lo = gt + 1
		default:
			return buf[i] // inside the equal-to-pivot run
		}
	}
}

func medianOfThree[T cmp.Ordered](buf []T, lo, hi int) T {
	mid := lo + (hi-lo)/2
	a, b, c := buf[lo], buf[mid], buf[hi]
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	default:
		return c
	}
}

// threeWayPartition rearranges buf[lo:hi+1] into (<p)(=p)(>p) runs and
// returns the index range [lt, gt] of the equal run.
func threeWayPartition[T cmp.Ordered](buf []T, lo, hi int, p T) (lt, gt int) {
	lt, gt = lo, hi
	i := lo
	for i <= gt {
		switch {
		case buf[i] < p:
			buf[i], buf[lt] = buf[lt], buf[i]
			lt++
			i++
		case buf[i] > p:
			buf[i], buf[gt] = buf[gt], buf[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// MedianInts returns the lower median of vs (the ⌈n/2⌉-th smallest,
// matching the paper's k = ⌊|N|/2⌋ convention for even n when ranks are
// 1-based). It panics on an empty slice.
func MedianInts(vs []int) int {
	n := len(vs)
	if n == 0 {
		panic("mathx: median of empty slice")
	}
	k := n / 2
	if k == 0 {
		k = 1
	}
	return KthSmallest(vs, k)
}

// CountLess returns how many elements of vs are strictly below x.
func CountLess(vs []int, x int) int {
	n := 0
	for _, v := range vs {
		if v < x {
			n++
		}
	}
	return n
}

// CountEqual returns how many elements of vs equal x.
func CountEqual(vs []int, x int) int {
	n := 0
	for _, v := range vs {
		if v == x {
			n++
		}
	}
	return n
}
