package qdigest

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 4); err == nil {
		t.Error("degenerate universe accepted")
	}
	if _, err := New(100, 0); err == nil {
		t.Error("zero k accepted")
	}
	d, err := New(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.universeSize() != 128 {
		t.Errorf("universe padded to %d, want 128", d.universeSize())
	}
}

func TestAddValidation(t *testing.T) {
	d, _ := New(64, 4)
	if err := d.Add(-1, 1); err == nil {
		t.Error("negative value accepted")
	}
	if err := d.Add(64, 1); err == nil {
		t.Error("out-of-universe value accepted")
	}
	if err := d.Add(3, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := d.Add(3, 2); err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 {
		t.Errorf("N = %d", d.N())
	}
}

func TestExactWithoutCompression(t *testing.T) {
	d, _ := New(1024, 1000000) // huge k: no folding
	vals := []int{5, 9, 9, 100, 512, 1000}
	for _, v := range vals {
		if err := d.Add(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	sort.Ints(vals)
	for k := 1; k <= len(vals); k++ {
		got, err := d.Quantile(int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != vals[k-1] {
			t.Errorf("rank %d = %d, want %d", k, got, vals[k-1])
		}
	}
}

func TestQuantileEmptyAndClamping(t *testing.T) {
	d, _ := New(64, 4)
	if _, err := d.Quantile(1); err == nil {
		t.Error("empty digest answered")
	}
	d.Add(7, 1)
	for _, k := range []int64{-5, 0, 1, 99} {
		got, err := d.Quantile(k)
		if err != nil || got != 7 {
			t.Errorf("Quantile(%d) = (%d, %v)", k, got, err)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a, _ := New(64, 4)
	b, _ := New(128, 4)
	if err := a.Merge(b); err == nil {
		t.Error("different universes merged")
	}
	c, _ := New(64, 8)
	if err := a.Merge(c); err == nil {
		t.Error("different k merged")
	}
}

// TestRankErrorBound is the defining q-digest property: after arbitrary
// merge/compress cascades, the answer's true rank is within n·log(σ)/k
// of the requested rank.
func TestRankErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		universe := 1 << (6 + trial%6) // 64 .. 2048
		k := []int{8, 16, 64}[trial%3]
		n := 200 + rng.Intn(800)
		vals := make([]int, n)
		root, _ := New(universe, k)
		// Simulate in-network aggregation: many small digests merged
		// and compressed pairwise.
		var parts []*Digest
		for i := 0; i < n; i += 10 {
			d, _ := New(universe, k)
			for j := i; j < i+10 && j < n; j++ {
				vals[j] = rng.Intn(universe)
				if err := d.Add(vals[j], 1); err != nil {
					t.Fatal(err)
				}
			}
			d.Compress()
			parts = append(parts, d)
		}
		for _, p := range parts {
			if err := root.Merge(p); err != nil {
				t.Fatal(err)
			}
			root.Compress()
		}
		sort.Ints(vals)
		logSigma := 0
		for s := universe; s > 1; s >>= 1 {
			logSigma++
		}
		bound := int64(n)*int64(logSigma)/int64(k) + 1
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			kth := int64(frac * float64(n))
			if kth < 1 {
				kth = 1
			}
			got, err := root.Quantile(kth)
			if err != nil {
				t.Fatal(err)
			}
			// True rank interval of got in vals.
			lo := int64(sort.SearchInts(vals, got)) + 1
			hi := int64(sort.SearchInts(vals, got+1))
			var rankErr int64
			switch {
			case kth < lo:
				rankErr = lo - kth
			case kth > hi:
				rankErr = kth - hi
			}
			if rankErr > bound {
				t.Errorf("trial %d (σ=%d k=%d n=%d): rank error %d exceeds bound %d",
					trial, universe, k, n, rankErr, bound)
			}
		}
	}
}

// TestCompressionBoundsSize: after Compress, the digest holds O(k·logσ)
// buckets regardless of input size.
func TestCompressionBoundsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, _ := New(1<<16, 16)
	for i := 0; i < 20000; i++ {
		if err := d.Add(rng.Intn(1<<16), 1); err != nil {
			t.Fatal(err)
		}
	}
	d.Compress()
	// 3k is the classical size bound (Shrivastava et al., Theorem 1).
	limit := 3 * 16
	if d.Buckets() > limit {
		t.Errorf("digest holds %d buckets, bound %d", d.Buckets(), limit)
	}
	if d.SizeBits(32, 32) != d.Buckets()*64 {
		t.Error("SizeBits arithmetic wrong")
	}
}

func TestCompressPreservesWeight(t *testing.T) {
	f := func(raw []uint8) bool {
		d, _ := New(256, 4)
		for _, v := range raw {
			if err := d.Add(int(v), 1); err != nil {
				return false
			}
		}
		before := d.N()
		d.Compress()
		var sum int64
		for _, c := range d.counts {
			sum += c
		}
		return d.N() == before && sum == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBounds(t *testing.T) {
	d, _ := New(8, 4) // height 3
	lo, hi := d.bounds(1)
	if lo != 0 || hi != 7 {
		t.Errorf("root bounds [%d,%d]", lo, hi)
	}
	lo, hi = d.bounds(d.leafID(5))
	if lo != 5 || hi != 5 {
		t.Errorf("leaf bounds [%d,%d]", lo, hi)
	}
	lo, hi = d.bounds(2)
	if lo != 0 || hi != 3 {
		t.Errorf("left-half bounds [%d,%d]", lo, hi)
	}
}
