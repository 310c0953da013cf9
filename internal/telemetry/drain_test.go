package telemetry_test

import (
	"math"
	"testing"

	"wsnq/internal/energy"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/telemetry"
)

// bitsPayload is a minimal payload of a known encoded size.
type bitsPayload struct{ bits int }

func (p bitsPayload) Bits() int { return p.bits }

// close enough for chains of float64 radio-cost additions.
func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

// TestDrainProjectionChain pins the analyzer's lifetime projection to a
// deployment whose energy is computed by hand: a 3-node chain
// (root <- 0 <- 1 <- 2) running identical convergecast rounds, where
// node i relays the 16-bit readings of its whole subtree. Node 0 is the
// hotspot by construction, its drain rate is exactly one round's
// receive-plus-relay cost under the default radio parameters, and the
// projected first death is the initial budget over that rate.
func TestDrainProjectionChain(t *testing.T) {
	series := [][]int{{10}, {20}, {30}}
	rt := simtest.ChainRuntime(t, series, 0, 1)
	budget := energy.DefaultParams().InitialBudget
	an := telemetry.NewAnalyzer(budget)
	rt.SetTrace(an)

	const rounds = 4
	for r := 0; r < rounds; r++ {
		if r > 0 {
			rt.AdvanceRound()
		}
		rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
			bits := 16
			for _, c := range children {
				bits += c.Bits()
			}
			return bitsPayload{bits: bits}
		})
	}

	// Hand-computed per-round cost of each node: receive the child's
	// payload, transmit it plus the own reading, framing included.
	sz := rt.Sizes()
	ep := rt.Ledger().Params()
	rho := rt.Topology().Range
	w1, w2, w3 := sz.WireBits(16), sz.WireBits(32), sz.WireBits(48)
	perRound := []float64{
		ep.RecvCost(w2) + ep.SendCost(w3, rho), // node 0: relays everything
		ep.RecvCost(w1) + ep.SendCost(w2, rho),
		ep.SendCost(w1, rho), // node 2: the leaf
	}

	r := an.Report()
	if r.Nodes != 3 || r.Rounds != rounds {
		t.Fatalf("report sees %d nodes over %d rounds, want 3 over %d", r.Nodes, r.Rounds, rounds)
	}
	for i, want := range perRound {
		if got := r.PerNode[i].DrainPerRound; !approx(got, want) {
			t.Errorf("node %d drain %g J/round, want %g", i, got, want)
		}
		// The trace-derived energy must agree with the ledger's ground
		// truth to the last bit of accumulation order.
		if got, ledger := r.PerNode[i].Joules, rt.Ledger().Spent(i); !approx(got, ledger) {
			t.Errorf("node %d: analyzer books %g J, ledger %g J", i, got, ledger)
		}
	}

	lt := r.Lifetime
	if lt.HottestNode != 0 {
		t.Errorf("hottest node %d, want 0 (it relays the whole chain)", lt.HottestNode)
	}
	if !approx(lt.MaxDrainPerRound, perRound[0]) {
		t.Errorf("max drain %g J/round, want %g", lt.MaxDrainPerRound, perRound[0])
	}
	if !approx(lt.Budget, budget) {
		t.Errorf("budget %g, want %g", lt.Budget, budget)
	}
	if want := budget / perRound[0]; !approx(lt.ProjectedRounds, want) {
		t.Errorf("projected first death at round %g, want %g", lt.ProjectedRounds, want)
	}

	// Hotspot ranking mirrors the chain: 0 hottest, then 1, then 2.
	if len(r.Hotspots) != 3 {
		t.Fatalf("want 3 hotspots, got %d", len(r.Hotspots))
	}
	total := perRound[0] + perRound[1] + perRound[2]
	for i, h := range r.Hotspots {
		if h.Node != i {
			t.Errorf("hotspot %d is node %d, want %d", i, h.Node, i)
		}
		if want := perRound[i] / total; !approx(h.Share, want) {
			t.Errorf("hotspot %d share %g, want %g", i, h.Share, want)
		}
	}
}
