// Package simtest provides runtime builders shared by the algorithm
// test suites: random traces, synthetic and pressure deployments, a
// driver that runs a continuous algorithm against the central oracle,
// and the event fold that series ingestion is held to.
package simtest

import (
	"fmt"
	"math/rand"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/som"
	"wsnq/internal/wsn"
)

// RandomSeries builds n node series of the given length with values
// uniform in [0, universe).
func RandomSeries(rng *rand.Rand, n, rounds, universe int) [][]int {
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

// CorrelatedSeries builds series that drift smoothly (random walk with
// small steps), the regime continuous algorithms are designed for.
func CorrelatedSeries(rng *rand.Rand, n, rounds, universe, maxStep int) [][]int {
	s := make([][]int, n)
	for i := range s {
		row := make([]int, rounds)
		v := rng.Intn(universe)
		for j := range row {
			row[j] = v
			v += rng.Intn(2*maxStep+1) - maxStep
			if v < 0 {
				v = 0
			}
			if v >= universe {
				v = universe - 1
			}
		}
		s[i] = row
	}
	return s
}

// ChainRuntime builds a deterministic chain deployment for the given
// series: node i sits at X = 10·(i+1), the root at the origin, and the
// radio range of 12 links each node only to its neighbors, so traffic
// flows root ← 0 ← 1 ← … ← n-1.
func ChainRuntime(tb testing.TB, series [][]int, loss float64, seed int64) *sim.Runtime {
	tb.Helper()
	pos := make([]wsn.Point, len(series))
	for i := range pos {
		pos[i] = wsn.Point{X: float64(10 * (i + 1))}
	}
	top, err := wsn.BuildTree(pos, wsn.Point{}, 12)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := data.NewTrace(series)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := sim.New(sim.Config{
		Topology: top,
		Source:   tr,
		Sizes:    msg.DefaultSizes(),
		Energy:   energy.DefaultParams(),
		LossProb: loss,
		Seed:     seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// RuntimeFromSeries assembles a runtime over a random connected
// topology for explicit series, forcing the universe to [0, universe).
func RuntimeFromSeries(series [][]int, universe int, seed int64) (*sim.Runtime, error) {
	tr, err := data.NewTrace(series)
	if err != nil {
		return nil, err
	}
	if universe > 0 {
		if err := tr.SetUniverse(0, universe-1); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	top, err := wsn.BuildConnectedTree(tr.Nodes(), 200, 60, rng, 50, wsn.BuildTree)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{
		Topology: top,
		Source:   tr,
		Sizes:    msg.DefaultSizes(),
		Energy:   energy.DefaultParams(),
	})
}

// SyntheticRuntime assembles the paper's synthetic deployment.
func SyntheticRuntime(n int, cfg data.SyntheticConfig, radioRange float64, seed int64) (*sim.Runtime, error) {
	rng := rand.New(rand.NewSource(seed))
	top, err := wsn.BuildConnectedTree(n, 200, radioRange, rng, 50, wsn.BuildTree)
	if err != nil {
		return nil, err
	}
	src, err := data.NewSynthetic(cfg, top.Pos, 200)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{
		Topology: top,
		Source:   src,
		Sizes:    msg.DefaultSizes(),
		Energy:   energy.DefaultParams(),
	})
}

// PressureRuntime assembles the paper's real-dataset deployment: trace
// values with SOM placement.
func PressureRuntime(n, rounds int, pessimistic bool, seed int64) (*sim.Runtime, error) {
	tr, err := data.NewPressureTrace(data.PressureConfig{Nodes: n, Rounds: rounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	if pessimistic {
		if err := tr.SetUniverse(data.PessimisticLoHPa, data.PessimisticHiHPa); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	pos, err := som.PlaceByFirstValue(tr.FirstValues(), 200, som.Config{}, rng)
	if err != nil {
		return nil, err
	}
	// SOM placements can be clustered; try a few roots and widen the
	// radio range if the disc graph stays disconnected.
	var top *wsn.Topology
	for _, radio := range []float64{35, 50, 70, 100, 150, 300} {
		for attempt := 0; attempt < 5; attempt++ {
			top, err = wsn.BuildTree(pos, pos[rng.Intn(len(pos))], radio)
			if err == nil {
				break
			}
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{
		Topology: top,
		Source:   tr,
		Sizes:    msg.DefaultSizes(),
		Energy:   energy.DefaultParams(),
	})
}

// RunAgainstOracle drives alg for rounds continuous rounds (plus the
// initialization round) and returns an error on the first round whose
// answer deviates from the central oracle. Each round's answer is
// recorded as a decision event when the runtime carries a trace
// collector, so the flight-recorder oracle can replay the run.
func RunAgainstOracle(rt *sim.Runtime, alg protocol.Algorithm, k, rounds int) error {
	q, err := alg.Init(rt, k)
	if err != nil {
		return fmt.Errorf("%s init: %w", alg.Name(), err)
	}
	rt.TraceDecision(k, q)
	if want := rt.Oracle(k); q != want {
		return fmt.Errorf("%s init: got %d, oracle %d", alg.Name(), q, want)
	}
	for t := 1; t <= rounds; t++ {
		rt.AdvanceRound()
		q, err = alg.Step(rt)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", alg.Name(), t, err)
		}
		rt.TraceDecision(k, q)
		if want := rt.Oracle(k); q != want {
			return fmt.Errorf("%s round %d: got %d, oracle %d", alg.Name(), t, q, want)
		}
	}
	return nil
}

// RunTraced is RunAgainstOracle without the per-round exactness
// assertion: it drives alg and records decisions, leaving judgment to
// the replay oracle — the driver for bounded-error protocols.
func RunTraced(rt *sim.Runtime, alg protocol.Algorithm, k, rounds int) error {
	q, err := alg.Init(rt, k)
	if err != nil {
		return fmt.Errorf("%s init: %w", alg.Name(), err)
	}
	rt.TraceDecision(k, q)
	for t := 1; t <= rounds; t++ {
		rt.AdvanceRound()
		q, err = alg.Step(rt)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", alg.Name(), t, err)
		}
		rt.TraceDecision(k, q)
	}
	return nil
}
