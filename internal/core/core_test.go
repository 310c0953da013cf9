package core

import (
	"math/rand"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/protocol"
	"wsnq/internal/simtest"
)

func freshCore() []protocol.Algorithm {
	nb := DefaultHBCOptions()
	nb.NoThresholdBroadcast = true
	nb.DirectRetrieval = false
	return []protocol.Algorithm{
		NewHBC(DefaultHBCOptions()),
		NewHBC(nb),
		NewIQ(DefaultIQOptions()),
		NewAdaptive(DefaultAdaptiveOptions()),
	}
}

func TestCoreExactOnCorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	series := simtest.CorrelatedSeries(rng, 60, 40, 4096, 30)
	for _, alg := range freshCore() {
		rt, err := simtest.RuntimeFromSeries(series, 4096, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, alg, 30, 39); err != nil {
			t.Error(err)
		}
	}
}

func TestCoreExactOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	series := simtest.RandomSeries(rng, 40, 25, 2048)
	for _, alg := range freshCore() {
		rt, err := simtest.RuntimeFromSeries(series, 2048, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, alg, 20, 24); err != nil {
			t.Error(err)
		}
	}
}

func TestCoreExactOnDuplicateHeavyData(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	series := simtest.RandomSeries(rng, 50, 30, 7)
	for _, alg := range freshCore() {
		rt, err := simtest.RuntimeFromSeries(series, 7, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, alg, 25, 29); err != nil {
			t.Error(err)
		}
	}
}

func TestCoreExactAcrossQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	series := simtest.CorrelatedSeries(rng, 45, 20, 1024, 20)
	for _, k := range []int{1, 5, 11, 34, 45} {
		for _, alg := range freshCore() {
			rt, err := simtest.RuntimeFromSeries(series, 1024, 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := simtest.RunAgainstOracle(rt, alg, k, 19); err != nil {
				t.Errorf("k=%d: %v", k, err)
			}
		}
	}
}

func TestCoreExactOnSyntheticDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic end-to-end in short mode")
	}
	for _, period := range []int{8, 63} {
		for _, alg := range freshCore() {
			rt, err := simtest.SyntheticRuntime(80, data.SyntheticConfig{
				Seed: 21, Period: period, NoisePct: 10, Universe: 1 << 14,
			}, 60, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := simtest.RunAgainstOracle(rt, alg, 40, 30); err != nil {
				t.Errorf("period %d: %v", period, err)
			}
		}
	}
}

func TestCoreExactOnPressureDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("pressure end-to-end in short mode")
	}
	for _, pess := range []bool{false, true} {
		for _, alg := range freshCore() {
			rt, err := simtest.PressureRuntime(70, 60, pess, 13)
			if err != nil {
				t.Fatal(err)
			}
			if err := simtest.RunAgainstOracle(rt, alg, 35, 40); err != nil {
				t.Errorf("pessimistic=%v: %v", pess, err)
			}
		}
	}
}

func TestCoreExactWithExtremeNoise(t *testing.T) {
	rt, err := simtest.SyntheticRuntime(60, data.SyntheticConfig{
		Seed: 31, Period: 250, NoisePct: 50, Universe: 1 << 16,
	}, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range freshCore() {
		rt, err = simtest.SyntheticRuntime(60, data.SyntheticConfig{
			Seed: 31, Period: 250, NoisePct: 50, Universe: 1 << 16,
		}, 60, 17)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, alg, 30, 25); err != nil {
			t.Error(err)
		}
	}
}

func TestHBCUsesCostModelBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	series := simtest.CorrelatedSeries(rng, 30, 5, 1<<16, 50)
	rt, err := simtest.RuntimeFromSeries(series, 1<<16, 18)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHBC(DefaultHBCOptions())
	if _, err := h.Init(rt, 15); err != nil {
		t.Fatal(err)
	}
	if h.BucketCount() < 3 {
		t.Errorf("cost-model bucket count %d should beat binary search", h.BucketCount())
	}
	// Bucket override for ablations.
	h2 := NewHBC(HBCOptions{Hints: protocol.HintMaxDistance, DirectRetrieval: true, Buckets: 4})
	rt2, err := simtest.RuntimeFromSeries(series, 1<<16, 18)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Init(rt2, 15); err != nil {
		t.Fatal(err)
	}
	if h2.BucketCount() != 4 {
		t.Errorf("bucket override ignored: %d", h2.BucketCount())
	}
}

func TestHBCNBRejectsDirectRetrieval(t *testing.T) {
	opts := DefaultHBCOptions()
	opts.NoThresholdBroadcast = true // direct retrieval still on
	h := NewHBC(opts)
	rng := rand.New(rand.NewSource(57))
	series := simtest.RandomSeries(rng, 10, 2, 100)
	rt, err := simtest.RuntimeFromSeries(series, 100, 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Init(rt, 5); err == nil {
		t.Error("incompatible combination accepted (§4.1.2)")
	}
}

func TestHBCNBSkipsFilterBroadcasts(t *testing.T) {
	// HBC-NB must never broadcast after a quantile change; count
	// broadcasts for a drifting series and compare with basic HBC. Both
	// run the same data; NB's broadcast count per changing round must
	// be no higher than basic's.
	rng := rand.New(rand.NewSource(58))
	series := simtest.CorrelatedSeries(rng, 40, 30, 2048, 40)

	run := func(alg protocol.Algorithm) int {
		rt, err := simtest.RuntimeFromSeries(series, 2048, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, alg, 20, 29); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().Broadcasts
	}
	basic := run(NewHBC(DefaultHBCOptions()))
	nbOpts := DefaultHBCOptions()
	nbOpts.NoThresholdBroadcast = true
	nbOpts.DirectRetrieval = false
	nb := run(NewHBC(nbOpts))
	if basic == 0 || nb == 0 {
		t.Fatal("no broadcasts recorded")
	}
	t.Logf("broadcasts: basic=%d nb=%d", basic, nb)
}

func TestIQXiAdaptsToTrend(t *testing.T) {
	// A steady upward trend must drive ξ_l to 0 and ξ_r above 0.
	n, rounds := 30, 20
	series := make([][]int, n)
	for i := range series {
		row := make([]int, rounds)
		for j := range row {
			row[j] = 100 + i + 10*j // +10 per round, distinct values
		}
		series[i] = row
	}
	rt, err := simtest.RuntimeFromSeries(series, 4096, 21)
	if err != nil {
		t.Fatal(err)
	}
	iq := NewIQ(DefaultIQOptions())
	if err := simtest.RunAgainstOracle(rt, iq, 15, rounds-1); err != nil {
		t.Fatal(err)
	}
	xiL, xiR := iq.Xi()
	if xiL != 0 {
		t.Errorf("upward trend: ξ_l = %d, want 0", xiL)
	}
	if xiR < 10 {
		t.Errorf("upward trend: ξ_r = %d, want >= 10", xiR)
	}
}

func TestIQXiZeroOnStaticData(t *testing.T) {
	n := 20
	series := make([][]int, n)
	for i := range series {
		series[i] = []int{i * 3, i * 3, i * 3, i * 3}
	}
	rt, err := simtest.RuntimeFromSeries(series, 128, 22)
	if err != nil {
		t.Fatal(err)
	}
	iq := NewIQ(DefaultIQOptions())
	if err := simtest.RunAgainstOracle(rt, iq, 10, 3); err != nil {
		t.Fatal(err)
	}
	xiL, xiR := iq.Xi()
	if xiL != 0 || xiR != 0 {
		t.Errorf("static data: ξ = (%d,%d), want (0,0)", xiL, xiR)
	}
}

func TestIQMedianGapSeeding(t *testing.T) {
	opts := DefaultIQOptions()
	opts.InitMedianGap = true
	iq := NewIQ(opts)
	// Gaps 1,1,1,96: median gap 1 vs average ~25.
	xi := iq.seedXi([]int{0, 1, 2, 3, 99})
	if xi != 1 {
		t.Errorf("median-gap ξ = %d, want 1", xi)
	}
	avg := NewIQ(DefaultIQOptions()).seedXi([]int{0, 1, 2, 3, 99})
	if avg <= xi {
		t.Errorf("average-gap ξ = %d should exceed median-gap %d on outlier data", avg, xi)
	}
}

func TestIQStaysSingleRefinement(t *testing.T) {
	// IQ's defining property: at most two convergecasts per round
	// (validation + at most one refinement).
	rng := rand.New(rand.NewSource(59))
	series := simtest.CorrelatedSeries(rng, 50, 40, 8192, 60)
	rt, err := simtest.RuntimeFromSeries(series, 8192, 23)
	if err != nil {
		t.Fatal(err)
	}
	iq := NewIQ(DefaultIQOptions())
	if _, err := iq.Init(rt, 25); err != nil {
		t.Fatal(err)
	}
	for tRound := 1; tRound < 40; tRound++ {
		before := rt.Stats().Convergecasts
		rt.AdvanceRound()
		if _, err := iq.Step(rt); err != nil {
			t.Fatal(err)
		}
		if got := rt.Stats().Convergecasts - before; got > 2 {
			t.Fatalf("round %d: %d convergecasts, IQ allows at most 2", tRound, got)
		}
	}
}

func TestAdaptiveSwitchesStrategies(t *testing.T) {
	// On highly volatile data the switcher should at least probe HBC;
	// the point here is that switching keeps answers exact (covered by
	// the oracle runs) and that both strategies get exercised.
	rng := rand.New(rand.NewSource(60))
	series := simtest.CorrelatedSeries(rng, 40, 80, 1<<15, 800)
	rt, err := simtest.RuntimeFromSeries(series, 1<<15, 24)
	if err != nil {
		t.Fatal(err)
	}
	ad := NewAdaptive(DefaultAdaptiveOptions())
	used := map[string]bool{}
	if _, err := ad.Init(rt, 20); err != nil {
		t.Fatal(err)
	}
	for tRound := 1; tRound < 80; tRound++ {
		rt.AdvanceRound()
		used[ad.using()] = true
		q, err := ad.Step(rt)
		if err != nil {
			t.Fatal(err)
		}
		if want := rt.Oracle(20); q != want {
			t.Fatalf("round %d: adaptive %d != oracle %d (using %s)", tRound, q, want, ad.using())
		}
	}
	if !used["IQ"] || !used["HBC"] {
		t.Errorf("strategies exercised: %v, want both IQ and HBC", used)
	}
}

func TestAdaptiveRejectsNBMode(t *testing.T) {
	opts := DefaultAdaptiveOptions()
	opts.HBC.NoThresholdBroadcast = true
	opts.HBC.DirectRetrieval = false
	ad := NewAdaptive(opts)
	rng := rand.New(rand.NewSource(61))
	series := simtest.RandomSeries(rng, 10, 2, 100)
	rt, err := simtest.RuntimeFromSeries(series, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Init(rt, 5); err == nil {
		t.Error("adaptive accepted HBC-NB mode")
	}
}

func TestCoreStepBeforeInitFails(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	series := simtest.RandomSeries(rng, 10, 2, 100)
	for _, alg := range freshCore() {
		rt, err := simtest.RuntimeFromSeries(series, 100, 26)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alg.Step(rt); err == nil {
			t.Errorf("%s: Step before Init accepted", alg.Name())
		}
	}
}

// using reports which strategy the next Step will run.
func (a *Adaptive) using() string {
	if len(a.strategies) == 0 {
		return ""
	}
	return a.strategies[a.current].name
}
