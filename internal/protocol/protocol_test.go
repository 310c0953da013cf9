package protocol

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/wsn"
)

// newRuntime builds a runtime over a random connected topology whose
// node count matches the trace.
func newRuntime(t *testing.T, series [][]int, seed int64) *sim.Runtime {
	t.Helper()
	tr, err := data.NewTrace(series)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	top, err := wsn.BuildConnectedTree(tr.Nodes(), 200, 60, rng, 50, wsn.BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.New(sim.Config{
		Topology: top,
		Source:   tr,
		Sizes:    msg.DefaultSizes(),
		Energy:   energy.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// randomSeries builds n nodes × rounds random series within [0, universe).
func randomSeries(rng *rand.Rand, n, rounds, universe int) [][]int {
	s := make([][]int, n)
	for i := range s {
		row := make([]int, rounds)
		for j := range row {
			row[j] = rng.Intn(universe)
		}
		s[i] = row
	}
	return s
}

func TestClassify(t *testing.T) {
	// Point filter at 10 == interval [10, 11).
	cases := []struct {
		v    int
		want Region
	}{
		{9, RegionLess}, {10, RegionEqual}, {11, RegionGreater},
	}
	for _, c := range cases {
		if got := Classify(c.v, 10, 11); got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	if Classify(5, 3, 8) != RegionEqual {
		t.Error("interval classification broken")
	}
	for _, r := range []Region{RegionLess, RegionEqual, RegionGreater} {
		if r.String() == "" {
			t.Error("empty region name")
		}
	}
}

func TestLEG(t *testing.T) {
	s := LEG{L: 4, E: 2, G: 4}
	if s.N() != 10 {
		t.Errorf("N = %d", s.N())
	}
	if !s.Valid(5) || !s.Valid(6) {
		t.Error("rank 5/6 should be valid (l=4, e=2)")
	}
	if s.Valid(4) || s.Valid(7) {
		t.Error("rank 4/7 should be invalid")
	}
	if s.Direction(4) != RegionLess || s.Direction(7) != RegionGreater || s.Direction(5) != RegionEqual {
		t.Error("Direction broken")
	}
}

func TestLEGApply(t *testing.T) {
	s := LEG{L: 4, E: 2, G: 4}
	c := &Counters{OutOfL: 1, IntoG: 1, IntoL: 2, OutOfG: 0}
	got := s.Apply(c)
	want := LEG{L: 5, E: 0, G: 5}
	if got != want {
		t.Errorf("Apply = %+v, want %+v", got, want)
	}
	if got.N() != s.N() {
		t.Error("Apply changed total")
	}
}

func TestBucketsProperties(t *testing.T) {
	f := func(rawLo int16, rawW uint8, rawB uint8) bool {
		lo := int(rawLo)
		hi := lo + int(rawW) + 1
		b := int(rawB)%64 + 1
		bu, err := NewBuckets(lo, hi, b)
		if err != nil {
			return false
		}
		if bu.Effective() < 1 || bu.Effective() > b {
			return false
		}
		// Every value maps into a bucket whose bounds contain it, and
		// bucket bounds tile the range exactly.
		for v := lo; v < hi; v++ {
			i, ok := bu.Index(v)
			if !ok {
				return false
			}
			blo, bhi := bu.Bounds(i)
			if v < blo || v >= bhi {
				return false
			}
		}
		if _, ok := bu.Index(lo - 1); ok {
			return false
		}
		if _, ok := bu.Index(hi); ok {
			return false
		}
		prev := lo
		for i := 0; i < bu.Effective(); i++ {
			blo, bhi := bu.Bounds(i)
			if blo != prev || bhi <= blo {
				return false
			}
			prev = bhi
		}
		return prev == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBucketsValidation(t *testing.T) {
	if _, err := NewBuckets(5, 5, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewBuckets(0, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	bu, _ := NewBuckets(0, 4, 16)
	if bu.width() != 1 || bu.Effective() != 4 {
		t.Error("small range should use unit buckets")
	}
}

func TestTruncateExtreme(t *testing.T) {
	vals := []int{5, 1, 9, 7, 7, 3}
	// Ties at the boundary are kept: the 2nd largest is 7, so both 7s
	// stay (the paper's "all values equal to the f-th largest" rule).
	got := truncateExtreme(append([]int(nil), vals...), 2, true)
	if !reflect.DeepEqual(got, []int{7, 7, 9}) {
		t.Errorf("largest 2 with ties = %v", got)
	}
	got = truncateExtreme(append([]int(nil), vals...), 1, true)
	if !reflect.DeepEqual(got, []int{9}) {
		t.Errorf("largest 1 = %v", got)
	}
	got = truncateExtreme(append([]int(nil), vals...), 2, false)
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("smallest 2 = %v", got)
	}
	got = truncateExtreme([]int{7, 7, 7}, 1, false)
	if len(got) != 3 {
		t.Errorf("all-tie truncation = %v", got)
	}
	if truncateExtreme([]int{1, 2}, 0, true) != nil {
		t.Error("f=0 should empty the list")
	}
}

func TestCollectSmallestK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := randomSeries(rng, 40, 1, 1000)
	rt := newRuntime(t, series, 1)
	all := make([]int, 40)
	for i := range all {
		all[i] = series[i][0]
	}
	sort.Ints(all)
	got := CollectSmallestK(rt, 10)
	if !reflect.DeepEqual(got, all[:10]) {
		t.Errorf("CollectSmallestK = %v, want %v", got, all[:10])
	}
	// Full collection.
	got = CollectSmallestK(rt, 40)
	if !reflect.DeepEqual(got, all) {
		t.Error("full collection mismatch")
	}
}

func TestCollectValuesIn(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := randomSeries(rng, 30, 1, 100)
	rt := newRuntime(t, series, 2)
	var want []int
	for i := range series {
		if v := series[i][0]; v >= 20 && v <= 60 {
			want = append(want, v)
		}
	}
	sort.Ints(want)
	got := CollectValuesIn(rt, 20, 60)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CollectValuesIn = %v, want %v", got, want)
	}
}

func TestCollectExtremeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		series := randomSeries(rng, 25, 1, 50) // heavy duplicates
		rt := newRuntime(t, series, int64(trial))
		lo, hi := 10, 40
		f := 1 + rng.Intn(6)
		largest := trial%2 == 0
		var inRange []int
		for i := range series {
			if v := series[i][0]; v >= lo && v <= hi {
				inRange = append(inRange, v)
			}
		}
		want := truncateExtreme(inRange, f, largest)
		got := CollectExtreme(rt, lo, hi, f, largest)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: CollectExtreme = %v, want %v", trial, got, want)
		}
	}
}

func TestCollectHistogramAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		series := randomSeries(rng, 30, 1, 200)
		rt := newRuntime(t, series, int64(100+trial))
		bu, err := NewBuckets(25, 175, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, bu.Effective())
		for i := range series {
			if idx, ok := bu.Index(series[i][0]); ok {
				want[idx]++
			}
		}
		got := CollectHistogram(rt, bu)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: histogram = %v, want %v", trial, got, want)
		}
	}
}

func TestOwningBucket(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	cases := []struct {
		k, idx, before int
	}{
		{1, 0, 0}, {3, 0, 0}, {4, 2, 3}, {5, 2, 3}, {6, 3, 5}, {10, 3, 5},
	}
	for _, c := range cases {
		idx, before, err := OwningBucket(counts, c.k)
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if idx != c.idx || before != c.before {
			t.Errorf("k=%d: got (%d,%d), want (%d,%d)", c.k, idx, before, c.idx, c.before)
		}
	}
	if _, _, err := OwningBucket(counts, 11); err == nil {
		t.Error("rank beyond total accepted")
	}
	if _, _, err := OwningBucket(counts, 0); err == nil {
		t.Error("rank 0 accepted")
	}
}

func TestRunValidationCountersAndHints(t *testing.T) {
	// Four nodes; filter at 50 (interval [50, 51)).
	// node 0: 40 -> 60  L->G  (outofL, intoG, hint hi 60)
	// node 1: 60 -> 45  G->L  (outofG, intoL, hint lo 45)
	// node 2: 50 -> 50  E->E  (silent)
	// node 3: 70 -> 55  G->G  (silent)
	series := [][]int{{40, 60}, {60, 45}, {50, 50}, {70, 55}}
	rt := newRuntime(t, series, 5)
	rt.AdvanceRound()
	c := RunValidation(rt, ValidationSpec{
		Lb: 50, Ub: 51,
		Prev:  func(n int) int { return rt.ReadingAt(n, 0) },
		Hints: HintTwoValues,
	})
	if c.OutOfL != 1 || c.IntoG != 1 || c.OutOfG != 1 || c.IntoL != 1 {
		t.Errorf("counters = %+v", c)
	}
	if !c.HasLo || c.HintLo != 45 || !c.HasHi || c.HintHi != 60 {
		t.Errorf("hints = (%d,%v) (%d,%v)", c.HintLo, c.HasLo, c.HintHi, c.HasHi)
	}
	lo, hi, hasLo, hasHi := c.HintBoundsAround(50)
	if !hasLo || !hasHi || lo != 45 || hi != 60 {
		t.Errorf("two-value bounds = [%d,%d]", lo, hi)
	}
}

func TestRunValidationSilence(t *testing.T) {
	series := [][]int{{40, 41}, {60, 61}, {50, 50}}
	rt := newRuntime(t, series, 6)
	rt.AdvanceRound()
	before := rt.Ledger().TotalSpent()
	c := RunValidation(rt, ValidationSpec{
		Lb: 50, Ub: 51,
		Prev:  func(n int) int { return rt.ReadingAt(n, 0) },
		Hints: HintTwoValues,
	})
	if !countersEmpty(&c) {
		t.Errorf("expected empty counters, got %+v", c)
	}
	if rt.Ledger().TotalSpent() != before {
		t.Error("silent validation cost energy")
	}
}

func TestRunValidationDistanceHint(t *testing.T) {
	// One mover down to 30 (distance 20), one up to 65 (distance 15).
	series := [][]int{{50, 30}, {40, 65}}
	rt := newRuntime(t, series, 7)
	rt.AdvanceRound()
	c := RunValidation(rt, ValidationSpec{
		Lb: 50, Ub: 51,
		Prev:  func(n int) int { return rt.ReadingAt(n, 0) },
		Hints: HintMaxDistance,
	})
	lo, hi, hasLo, hasHi := c.HintBoundsAround(50)
	if !hasLo || !hasHi {
		t.Fatal("distance hints missing")
	}
	if lo != 30 || hi != 70 { // symmetric distance 20 both ways
		t.Errorf("distance bounds = [%d,%d], want [30,70]", lo, hi)
	}
	// The distance payload is one value smaller than the two-value one.
	s := msg.DefaultSizes()
	two := &Counters{mode: HintTwoValues, sizes: s}
	one := &Counters{mode: HintMaxDistance, sizes: s}
	if one.Bits() != two.Bits()-s.ValueBits {
		t.Errorf("distance hint does not save one value: %d vs %d", one.Bits(), two.Bits())
	}
}

func TestRunValidationAttach(t *testing.T) {
	// Ξ = [48, 53]: nodes with new value inside attach it (except 50,
	// the old quantile itself).
	series := [][]int{{50, 49}, {50, 50}, {60, 52}, {10, 80}}
	rt := newRuntime(t, series, 8)
	rt.AdvanceRound()
	c := RunValidation(rt, ValidationSpec{
		Lb: 50, Ub: 51,
		Prev:  func(n int) int { return rt.ReadingAt(n, 0) },
		Hints: HintMaxDistance,
		Attach: func(n, v int) bool {
			return v >= 48 && v <= 53 && v != 50
		},
	})
	if !reflect.DeepEqual(c.Attached, []int{49, 52}) {
		t.Errorf("Attached = %v", c.Attached)
	}
}

func TestSnapshotFullExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		series := randomSeries(rng, 35, 1, 60) // duplicates likely
		rt := newRuntime(t, series, int64(200+trial))
		k := 1 + rng.Intn(35)
		res, all, err := SnapshotFull(rt, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 35 {
			t.Fatalf("got %d values", len(all))
		}
		if res.Value != rt.Oracle(k) {
			t.Fatalf("trial %d k=%d: snapshot %d != oracle %d", trial, k, res.Value, rt.Oracle(k))
		}
		// LEG must be exact.
		var l, e int
		for i := range series {
			if series[i][0] < res.Value {
				l++
			} else if series[i][0] == res.Value {
				e++
			}
		}
		if res.State.L != l || res.State.E != e || res.State.G != 35-l-e {
			t.Fatalf("LEG = %+v, want l=%d e=%d", res.State, l, e)
		}
		if !res.State.Valid(k) {
			t.Fatal("snapshot state invalid for its own rank")
		}
	}
}

func TestSnapshotFullRejectsBadRank(t *testing.T) {
	rt := newRuntime(t, [][]int{{1}, {2}}, 10)
	if _, _, err := SnapshotFull(rt, 0); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, _, err := SnapshotFull(rt, 3); err == nil {
		t.Error("rank beyond N accepted")
	}
}

func TestSnapshotQuantileExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		universe := []int{64, 1000, 65536}[trial%3]
		series := randomSeries(rng, 80, 1, universe)
		tr, err := data.NewTrace(series)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetUniverse(0, universe-1); err != nil {
			t.Fatal(err)
		}
		topRng := rand.New(rand.NewSource(int64(300 + trial)))
		top, err := wsn.BuildConnectedTree(80, 200, 60, topRng, 50, wsn.BuildTree)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sim.New(sim.Config{Topology: top, Source: tr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(80)
		b := []int{2, 4, 9, 16}[trial%4]
		res, err := SnapshotQuantile(rt, k, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != rt.Oracle(k) {
			t.Fatalf("trial %d (k=%d b=%d u=%d): snapshot %d != oracle %d",
				trial, k, b, universe, res.Value, rt.Oracle(k))
		}
		if !res.State.Valid(k) {
			t.Fatalf("trial %d: inconsistent LEG %+v for k=%d", trial, res.State, k)
		}
		if res.State.N() != 80 {
			t.Fatalf("trial %d: LEG total %d", trial, res.State.N())
		}
	}
}

func TestSnapshotQuantileValidation(t *testing.T) {
	rt := newRuntime(t, [][]int{{1}, {2}}, 12)
	if _, err := SnapshotQuantile(rt, 0, 4); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := SnapshotQuantile(rt, 1, 1); err == nil {
		t.Error("single bucket accepted")
	}
}
