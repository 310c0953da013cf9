package costmodel

import (
	"math"
	"testing"

	"wsnq/internal/msg"
)

func defaultModel() Model { return FromSizes(msg.DefaultSizes()) }

func TestValidate(t *testing.T) {
	if err := defaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Model{HeaderBits: 0, RefinementBits: 1, BucketBits: 1}
	if bad.Validate() == nil {
		t.Error("zero header accepted")
	}
}

func TestBExactSatisfiesStationarity(t *testing.T) {
	m := defaultModel()
	b, err := m.bExact()
	if err != nil {
		t.Fatal(err)
	}
	// Stationarity condition of f(b) = (C + b·s_b)/ln b:
	// s_b·b·(ln b − 1) = C.
	c := float64(m.HeaderBits + m.RefinementBits)
	lhs := float64(m.BucketBits) * b * (math.Log(b) - 1)
	if math.Abs(lhs-c) > 1e-6*c {
		t.Errorf("stationarity violated: %v != %v (b=%v)", lhs, c, b)
	}
	if b < 2 || b > 64 {
		t.Errorf("b_exact = %v implausible for default sizes", b)
	}
}

func TestBucketCountIsDiscreteOptimum(t *testing.T) {
	m := defaultModel()
	for _, tau := range []int{256, 1024, 65536, 1 << 20} {
		b, err := m.BucketCount(tau)
		if err != nil {
			t.Fatal(err)
		}
		best := m.cost(b, tau)
		for cand := 2; cand <= 256; cand++ {
			if c := m.cost(cand, tau); c < best-1e-9 {
				t.Errorf("tau=%d: BucketCount=%d (cost %v) beaten by b=%d (cost %v)", tau, b, best, cand, c)
			}
		}
	}
}

func TestBucketCountBeatsBinarySearch(t *testing.T) {
	// The paper's whole point: binary search (b = 2) is suboptimal
	// under this cost model for realistic header sizes.
	m := defaultModel()
	b, err := m.BucketCount(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 2 {
		t.Fatalf("optimal bucket count %d does not beat binary search", b)
	}
	if m.cost(b, 1<<16) >= m.cost(2, 1<<16) {
		t.Error("optimal b not cheaper than binary search")
	}
}

func TestBucketCountGrowsWithHeader(t *testing.T) {
	// Larger fixed per-message overhead should push toward more buckets
	// per round (fewer rounds).
	small := Model{HeaderBits: 16, RefinementBits: 32, BucketBits: 16}
	large := Model{HeaderBits: 1024, RefinementBits: 32, BucketBits: 16}
	bs, err := small.BucketCount(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := large.BucketCount(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if bl <= bs {
		t.Errorf("bucket count should grow with header: %d (small) vs %d (large)", bs, bl)
	}
}

func TestBucketCountDegenerate(t *testing.T) {
	m := defaultModel()
	b, err := m.BucketCount(1)
	if err != nil {
		t.Fatal(err)
	}
	if b != 2 {
		t.Errorf("degenerate universe: b = %d, want 2", b)
	}
	if !math.IsInf(m.cost(1, 100), 1) || !math.IsInf(m.cost(5, 1), 1) {
		t.Error("degenerate cost should be infinite")
	}
}
