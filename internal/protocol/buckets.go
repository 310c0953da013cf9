package protocol

import (
	"fmt"

	"wsnq/internal/mathx"
)

// Buckets partitions the half-open integer interval [Lo, Hi) into at
// most B equal-width buckets (the last bucket may be shorter). When the
// interval holds fewer than B integers, unit-width buckets are used, so
// Effective() can be below B.
type Buckets struct {
	Lo, Hi int // [Lo, Hi)
	B      int // requested bucket count
}

// NewBuckets validates and constructs a partition.
func NewBuckets(lo, hi, b int) (Buckets, error) {
	if hi <= lo {
		return Buckets{}, fmt.Errorf("protocol: empty bucket range [%d,%d)", lo, hi)
	}
	if b < 1 {
		return Buckets{}, fmt.Errorf("protocol: bucket count %d must be >= 1", b)
	}
	return Buckets{Lo: lo, Hi: hi, B: b}, nil
}

// width returns the per-bucket integer width.
func (bu Buckets) width() int {
	return mathx.CeilDiv(bu.Hi-bu.Lo, bu.B)
}

// Effective returns the number of buckets actually needed to cover the
// range at the computed width.
func (bu Buckets) Effective() int {
	return mathx.CeilDiv(bu.Hi-bu.Lo, bu.width())
}

// Index returns the bucket of v and whether v lies in the range.
func (bu Buckets) Index(v int) (int, bool) {
	if v < bu.Lo || v >= bu.Hi {
		return 0, false
	}
	return (v - bu.Lo) / bu.width(), true
}

// Bounds returns the half-open sub-interval [lo, hi) of bucket i.
func (bu Buckets) Bounds(i int) (lo, hi int) {
	w := bu.width()
	lo = bu.Lo + i*w
	hi = lo + w
	if hi > bu.Hi {
		hi = bu.Hi
	}
	return lo, hi
}
