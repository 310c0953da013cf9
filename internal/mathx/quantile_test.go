package mathx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKthSmallestFloat64AgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(rng.Intn(16)) / 4 // duplicate-heavy
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		k := 1 + rng.Intn(n)
		if got := KthSmallest(vs, k); got != sorted[k-1] {
			t.Fatalf("trial %d: rank %d of %v = %v, want %v", trial, k, vs, got, sorted[k-1])
		}
	}
}

func TestKthSmallestFloat64DoesNotModifyInput(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	want := append([]float64(nil), vs...)
	KthSmallest(vs, 3)
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("input modified: %v, want %v", vs, want)
		}
	}
}

func TestKthSmallestFloat64Panics(t *testing.T) {
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d of 3 values did not panic", k)
				}
			}()
			KthSmallest([]float64{1, 2, 3}, k)
		}()
	}
}

func TestQuantileFloat64NearestRank(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},     // clamped to rank 1
		{0.5, 50},   // ⌈0.5·10⌉ = 5
		{0.95, 100}, // ⌈9.5⌉ = 10
		{0.99, 100},
		{1, 100},
	}
	for _, c := range cases {
		if got := QuantileFloat64(vs, c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Single element: every quantile is that element.
	if got := QuantileFloat64([]float64{42}, 0.99); got != 42 {
		t.Errorf("singleton p99 = %v, want 42", got)
	}
}

func TestQuantileFloat64MatchesSortedRank(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		for i, v := range raw {
			vs[i] = float64(v)
		}
		p := float64(pRaw) / 255
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		k := int(p * float64(len(vs)))
		if float64(k) < p*float64(len(vs)) {
			k++
		}
		if k < 1 {
			k = 1
		}
		if k > len(vs) {
			k = len(vs)
		}
		return QuantileFloat64(vs, p) == sorted[k-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
