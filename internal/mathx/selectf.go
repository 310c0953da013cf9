package mathx

import (
	"fmt"
	"math"
	"sort"
)

// kthSmallestFloat64 returns the k-th smallest element (1-based rank)
// of vs without fully sorting it — the float64 twin of KthSmallest,
// sharing the same median-of-three quickselect with a sort fallback.
// It panics if k is out of [1, len(vs)]. The input slice is not
// modified.
func kthSmallestFloat64(vs []float64, k int) float64 {
	if k < 1 || k > len(vs) {
		panic(fmt.Sprintf("mathx: rank %d out of range for %d values", k, len(vs)))
	}
	buf := make([]float64, len(vs))
	copy(buf, vs)
	return quickselectF(buf, k-1)
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
	return kthSmallestFloat64(vs, k)
}

// quickselectF returns the element that would be at index i of the
// sorted slice, reordering buf in place (see quickselect for the int
// version).
func quickselectF(buf []float64, i int) float64 {
	lo, hi := 0, len(buf)-1
	for depth := 0; ; depth++ {
		if lo == hi {
			return buf[lo]
		}
		if depth > 64 {
			sub := buf[lo : hi+1]
			sort.Float64s(sub)
			return buf[i]
		}
		p := medianOfThreeF(buf, lo, hi)
		lt, gt := threeWayPartitionF(buf, lo, hi, p)
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

func medianOfThreeF(buf []float64, lo, hi int) float64 {
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

func threeWayPartitionF(buf []float64, lo, hi int, p float64) (lt, gt int) {
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
