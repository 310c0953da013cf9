package core

import (
	"math/rand"
	"testing"

	"wsnq/internal/protocol"
	"wsnq/internal/simtest"
)

// TestHBCOptionMatrix: every legal HBC configuration stays exact.
func TestHBCOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	series := simtest.CorrelatedSeries(rng, 50, 30, 4096, 80)
	cases := []HBCOptions{
		{Hints: protocol.HintMaxDistance, DirectRetrieval: true},
		{Hints: protocol.HintTwoValues, DirectRetrieval: true},
		{Hints: protocol.HintNone, DirectRetrieval: true},
		{Hints: protocol.HintMaxDistance, DirectRetrieval: false},
		{Hints: protocol.HintMaxDistance, NoThresholdBroadcast: true},
		{Hints: protocol.HintTwoValues, NoThresholdBroadcast: true},
		{Hints: protocol.HintMaxDistance, DirectRetrieval: true, Buckets: 2},
		{Hints: protocol.HintMaxDistance, DirectRetrieval: true, Buckets: 64},
	}
	for i, opts := range cases {
		rt, err := simtest.RuntimeFromSeries(series, 4096, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, NewHBC(opts), 25, 29); err != nil {
			t.Errorf("case %d (%+v): %v", i, opts, err)
		}
	}
}

// TestIQOptionMatrix: every IQ configuration stays exact.
func TestIQOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	series := simtest.CorrelatedSeries(rng, 50, 30, 4096, 80)
	cases := []IQOptions{
		{M: 2, InitC: 1, Hints: protocol.HintMaxDistance},
		{M: 16, InitC: 1, Hints: protocol.HintMaxDistance},
		{M: 8, InitC: 0.5, Hints: protocol.HintMaxDistance},
		{M: 8, InitC: 4, Hints: protocol.HintMaxDistance},
		{M: 8, InitC: 1, InitMedianGap: true, Hints: protocol.HintMaxDistance},
		{M: 8, InitC: 1, Hints: protocol.HintTwoValues},
		{M: 8, InitC: 1, Hints: protocol.HintNone},
	}
	for i, opts := range cases {
		rt, err := simtest.RuntimeFromSeries(series, 4096, 41)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, NewIQ(opts), 25, 29); err != nil {
			t.Errorf("case %d (%+v): %v", i, opts, err)
		}
	}
}

// TestIQDefaultedOptions: the constructor repairs degenerate options.
func TestIQDefaultedOptions(t *testing.T) {
	iq := NewIQ(IQOptions{M: 0, InitC: -2})
	if iq.M < 2 {
		t.Errorf("M not defaulted: %d", iq.M)
	}
	if iq.InitC <= 0 {
		t.Errorf("InitC not defaulted: %v", iq.InitC)
	}
}

// TestHBCNBAvoidsBroadcastsOnStableData: with a constant quantile the
// NB variant transmits strictly less than basic HBC (no closing
// broadcasts at all after initialization).
func TestHBCNBAvoidsBroadcastsOnStableData(t *testing.T) {
	n := 40
	series := make([][]int, n)
	for i := range series {
		row := make([]int, 20)
		for j := range row {
			row[j] = i * 7 // static
		}
		series[i] = row
	}
	run := func(opts HBCOptions) int {
		rt, err := simtest.RuntimeFromSeries(series, 1024, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.RunAgainstOracle(rt, NewHBC(opts), 20, 19); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().Broadcasts
	}
	nbOpts := DefaultHBCOptions()
	nbOpts.NoThresholdBroadcast = true
	nbOpts.DirectRetrieval = false
	nb := run(nbOpts)
	basic := run(DefaultHBCOptions())
	// Static data: neither does per-round work after init; both should
	// be limited to initialization broadcasts.
	if nb > basic {
		t.Errorf("NB broadcasts %d > basic %d on static data", nb, basic)
	}
}

// TestAdaptiveProbing: the probing knob forces periodic strategy
// switches even when one side is consistently cheaper.
func TestAdaptiveProbing(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	series := simtest.CorrelatedSeries(rng, 40, 60, 2048, 10)
	opts := DefaultAdaptiveOptions()
	opts.ProbeEvery = 4
	ad := NewAdaptive(opts)
	rt, err := simtest.RuntimeFromSeries(series, 2048, 43)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Init(rt, 20); err != nil {
		t.Fatal(err)
	}
	switches := 0
	prev := ad.using()
	for tR := 1; tR < 60; tR++ {
		rt.AdvanceRound()
		if _, err := ad.Step(rt); err != nil {
			t.Fatal(err)
		}
		if ad.using() != prev {
			switches++
			prev = ad.using()
		}
	}
	if switches == 0 {
		t.Error("probing never switched strategies")
	}
}

// TestAdaptiveDefaultedOptions: the constructor repairs degenerate
// switcher knobs.
func TestAdaptiveDefaultedOptions(t *testing.T) {
	ad := NewAdaptive(AdaptiveOptions{ProbeEvery: 1, Alpha: 7})
	if ad.ProbeEvery < 2 {
		t.Errorf("ProbeEvery not defaulted: %d", ad.ProbeEvery)
	}
	if ad.Alpha <= 0 || ad.Alpha > 1 {
		t.Errorf("Alpha not defaulted: %v", ad.Alpha)
	}
}

// TestAdaptiveThreeWay: with POS included, the switcher remains exact
// and exercises all three strategies under probing.
func TestAdaptiveThreeWay(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	series := simtest.CorrelatedSeries(rng, 50, 100, 1<<14, 300)
	opts := DefaultAdaptiveOptions()
	opts.UsePOS = true
	opts.ProbeEvery = 5
	ad := NewAdaptive(opts)
	rt, err := simtest.RuntimeFromSeries(series, 1<<14, 44)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Init(rt, 25); err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for tR := 1; tR < 100; tR++ {
		rt.AdvanceRound()
		used[ad.using()] = true
		q, err := ad.Step(rt)
		if err != nil {
			t.Fatal(err)
		}
		if want := rt.Oracle(25); q != want {
			t.Fatalf("round %d (%s): %d != oracle %d", tR, ad.using(), q, want)
		}
	}
	for _, want := range []string{"IQ", "HBC", "POS"} {
		if !used[want] {
			t.Errorf("strategy %s never ran: %v", want, used)
		}
	}
}
