package telemetry

import (
	"math"
	"testing"

	"wsnq/internal/trace"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestJain(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all-zero", []float64{0, 0, 0}, 1},
		{"balanced", []float64{5, 5, 5, 5}, 1},
		{"one-carries-all", []float64{10, 0, 0, 0}, 0.25}, // 1/n
		{"half", []float64{1, 1, 0, 0}, 0.5},
	}
	for _, c := range cases {
		if got := jain(c.xs); !almost(got, c.want) {
			t.Errorf("%s: jain(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

// feed replays a synthetic two-round, three-node study into an
// analyzer: node 0 is the hot relay, node 2 never transmits.
func feed(a *Analyzer) {
	ev := func(e trace.Event) { a.Collect(e) }
	// Round 0: attach emits round-start.
	ev(trace.Event{Kind: trace.KindRoundStart, Round: 0})
	ev(trace.Event{Kind: trace.KindSend, Round: 0, Node: 1, Peer: 0, Frames: 1, Wire: 100})
	ev(trace.Event{Kind: trace.KindEnergy, Round: 0, Node: 1, Joules: 2e-6, Aux: trace.EnergySend})
	ev(trace.Event{Kind: trace.KindReceive, Round: 0, Node: 0, Peer: 1, Wire: 100})
	ev(trace.Event{Kind: trace.KindEnergy, Round: 0, Node: 0, Joules: 1e-6, Aux: trace.EnergyRecv})
	ev(trace.Event{Kind: trace.KindSend, Round: 0, Node: 0, Peer: -1, Frames: 2, Wire: 200})
	ev(trace.Event{Kind: trace.KindEnergy, Round: 0, Node: 0, Joules: 5e-6, Aux: trace.EnergySend})
	ev(trace.Event{Kind: trace.KindRoundEnd, Round: 0})
	// Round 1: node 0 relays again, cheaper.
	ev(trace.Event{Kind: trace.KindRoundStart, Round: 1})
	ev(trace.Event{Kind: trace.KindSend, Round: 1, Node: 0, Peer: -1, Frames: 1, Wire: 80})
	ev(trace.Event{Kind: trace.KindEnergy, Round: 1, Node: 0, Joules: 2e-6, Aux: trace.EnergySend})
	ev(trace.Event{Kind: trace.KindRoundEnd, Round: 1})
	// Mark node 2 as present (a reception costs energy too).
	ev(trace.Event{Kind: trace.KindRoundStart, Round: 2})
	ev(trace.Event{Kind: trace.KindReceive, Round: 2, Node: 2, Peer: 0, Wire: 80})
	ev(trace.Event{Kind: trace.KindEnergy, Round: 2, Node: 2, Joules: 1e-6, Aux: trace.EnergyRecv})
	ev(trace.Event{Kind: trace.KindRoundEnd, Round: 2})
}

func TestAnalyzerReport(t *testing.T) {
	const budget = 30e-3
	a := NewAnalyzer(budget)
	feed(a)
	r := a.Report()

	if r.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3", r.Nodes)
	}
	if r.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (round-start events)", r.Rounds)
	}

	// Node joules: node0 = 8e-6, node1 = 2e-6, node2 = 1e-6.
	if got := r.PerNode[0].Joules; !almost(got, 8e-6) {
		t.Errorf("node 0 joules = %v, want 8e-6", got)
	}
	if got := r.PerNode[0].DrainPerRound; !almost(got, 8e-6/3) {
		t.Errorf("node 0 drain = %v, want %v", got, 8e-6/3)
	}

	// Hotspots ordered by joules descending.
	if len(r.Hotspots) != 3 || r.Hotspots[0].Node != 0 || r.Hotspots[1].Node != 1 || r.Hotspots[2].Node != 2 {
		t.Fatalf("hotspots = %+v, want nodes 0,1,2 by energy", r.Hotspots)
	}
	if got := r.Hotspots[0].Share; !almost(got, 8.0/11.0) {
		t.Errorf("hotspot share = %v, want 8/11", got)
	}

	// Jain over joules {8,2,1}: 121 / (3·69).
	if got := r.JainEnergy; !almost(got, 121.0/207.0) {
		t.Errorf("Jain energy = %v, want %v", got, 121.0/207.0)
	}
	// Jain over sends {2,1,0}: 9 / (3·5).
	if got := r.JainMessages; !almost(got, 0.6) {
		t.Errorf("Jain messages = %v, want 0.6", got)
	}

	// Lifetime: hottest node 0 drains 8e-6/3 J/round from a 30 mJ budget.
	if r.Lifetime.HottestNode != 0 {
		t.Errorf("hottest = %d, want 0", r.Lifetime.HottestNode)
	}
	want := budget / (8e-6 / 3)
	if got := r.Lifetime.ProjectedRounds; !almost(got, want) {
		t.Errorf("projected rounds = %v, want %v", got, want)
	}

	// Per-round frames: {3, 1, 0} → p50 = 1 (rank 2 of sorted {0,1,3}).
	if r.RoundFrames.Count != 3 || r.RoundFrames.Max != 3 || r.RoundFrames.P50 != 1 {
		t.Errorf("round frames = %+v, want count 3, max 3, p50 1", r.RoundFrames)
	}
	// Per-round joules: {8e-6, 2e-6, 1e-6}.
	if !almost(r.RoundJoules.Sum, 11e-6) {
		t.Errorf("round joules sum = %v, want 11e-6", r.RoundJoules.Sum)
	}

	// Messages distribution over sends {2,1,0}.
	if !almost(r.Messages.Mean, 1) || r.Messages.Max != 2 {
		t.Errorf("messages dist = %+v, want mean 1 max 2", r.Messages)
	}
}

func TestAnalyzerEmpty(t *testing.T) {
	r := NewAnalyzer(0).Report()
	if r.Nodes != 0 || r.Rounds != 0 {
		t.Errorf("empty report nodes/rounds = %d/%d, want 0/0", r.Nodes, r.Rounds)
	}
	if r.Lifetime.ProjectedRounds != 0 {
		t.Errorf("empty report projected rounds = %v, want 0", r.Lifetime.ProjectedRounds)
	}
	if r.Lifetime.HottestNode != -1 {
		t.Errorf("empty report hottest = %d, want -1", r.Lifetime.HottestNode)
	}
	if len(r.Hotspots) != 0 {
		t.Errorf("empty report hotspots = %+v, want none", r.Hotspots)
	}
	if r.JainEnergy != 1 || r.JainMessages != 1 {
		t.Errorf("empty report Jain = %v/%v, want 1/1", r.JainEnergy, r.JainMessages)
	}
	// An empty per-node list, not a nil one: /health renders [] before
	// the first event.
	if r.PerNode == nil || len(r.PerNode) != 0 {
		t.Errorf("empty report per-node = %#v, want an empty list", r.PerNode)
	}
}

// TestAnalyzerZeroRoundStream feeds rounds that carry no node activity
// at all: they count as rounds of zero cost, and no node, hotspot or
// lifetime projection appears.
func TestAnalyzerZeroRoundStream(t *testing.T) {
	a := NewAnalyzer(30e-3)
	for r := 0; r < 3; r++ {
		a.Collect(trace.Event{Kind: trace.KindRoundStart, Round: r, Node: -1})
		a.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: r, Node: -1})
	}
	r := a.Report()
	if r.Rounds != 3 || r.Nodes != 0 || r.PerNode == nil || len(r.PerNode) != 0 {
		t.Errorf("rounds/nodes = %d/%d, per-node %#v; want 3/0 and an empty list", r.Rounds, r.Nodes, r.PerNode)
	}
	if r.RoundFrames.Count != 3 || r.RoundFrames.Sum != 0 || r.RoundJoules.Count != 3 || r.RoundJoules.Sum != 0 {
		t.Errorf("round totals = frames %+v, joules %+v; want three zero-cost rounds", r.RoundFrames, r.RoundJoules)
	}
	if len(r.Hotspots) != 0 || r.Lifetime.HottestNode != -1 || r.Lifetime.ProjectedRounds != 0 {
		t.Errorf("idle stream reports hotspots %+v, lifetime %+v", r.Hotspots, r.Lifetime)
	}
}

// TestAnalyzerNodeCounters pins each per-node counter the report
// reads: sends, frames and wire bits out from send events, receptions,
// and joules from energy debits; a lost hop adds nothing to them.
func TestAnalyzerNodeCounters(t *testing.T) {
	a := NewAnalyzer(0)
	for _, e := range []trace.Event{
		{Kind: trace.KindRoundStart, Round: 0, Node: -1},
		{Kind: trace.KindSend, Round: 0, Node: 2, Peer: 1, Bits: 16, Wire: 144, Frames: 1, Values: 1},
		{Kind: trace.KindReceive, Round: 0, Node: 1, Peer: 2, Bits: 16, Wire: 144},
		{Kind: trace.KindSend, Round: 0, Node: 1, Peer: 0, Bits: 32, Wire: 160, Frames: 2, Values: 2},
		{Kind: trace.KindDrop, Round: 0, Node: 1, Peer: 0},
		{Kind: trace.KindEnergy, Round: 0, Node: 2, Wire: 144, Joules: 0.5, Aux: trace.EnergySend},
		{Kind: trace.KindEnergy, Round: 0, Node: 1, Wire: 144, Joules: 0.25, Aux: trace.EnergyRecv},
		{Kind: trace.KindRoundEnd, Round: 0, Node: -1},
		{Kind: trace.KindRoundStart, Round: 1, Node: -1},
		{Kind: trace.KindRefine, Round: 1, Node: -1, Value: 10, Aux: 20, Values: 3},
		{Kind: trace.KindDecision, Round: 1, Node: -1, Value: 99, Aux: 5},
		{Kind: trace.KindEnergy, Round: 1, Node: 2, Joules: 0.125, Aux: trace.EnergySend},
		{Kind: trace.KindRoundEnd, Round: 1, Node: -1},
	} {
		a.Collect(e)
	}
	r := a.Report()
	want := []NodeLoad{
		{Node: 0},
		{Node: 1, Sends: 1, Receives: 1, Frames: 2, BitsOut: 160, Joules: 0.25, DrainPerRound: 0.125},
		{Node: 2, Sends: 1, Frames: 1, BitsOut: 144, Joules: 0.625, DrainPerRound: 0.3125},
	}
	if len(r.PerNode) != len(want) {
		t.Fatalf("per-node = %+v, want %d nodes", r.PerNode, len(want))
	}
	for i, w := range want {
		if r.PerNode[i] != w {
			t.Errorf("node %d = %+v, want %+v", i, r.PerNode[i], w)
		}
	}
}

// TestAnalyzerSparseNodes feeds a stream whose only per-node activity
// sits at a high node index: the lazily grown node list must cover the
// index and keep every untouched node at zero load.
func TestAnalyzerSparseNodes(t *testing.T) {
	a := NewAnalyzer(0)
	a.Collect(trace.Event{Kind: trace.KindSend, Round: 0, Node: 7, Wire: 96, Frames: 2, Values: 3})
	a.Collect(trace.Event{Kind: trace.KindEnergy, Round: 0, Node: 7, Joules: 4e-6, Aux: trace.EnergySend})

	r := a.Report()
	if r.Nodes != 8 || len(r.PerNode) != 8 {
		t.Fatalf("report sees %d nodes (%d listed), want 8 (index 7 seen)", r.Nodes, len(r.PerNode))
	}
	for i := 0; i < 7; i++ {
		if r.PerNode[i] != (NodeLoad{Node: i}) {
			t.Errorf("node %d: untouched node not zero: %+v", i, r.PerNode[i])
		}
	}
	if got, want := r.PerNode[7], (NodeLoad{Node: 7, Sends: 1, Frames: 2, BitsOut: 96, Joules: 4e-6}); got != want {
		t.Errorf("node 7 = %+v, want %+v", got, want)
	}
}

// TestAnalyzerRootActivity: the root (node -1) counts toward the round
// totals but never grows the node list.
func TestAnalyzerRootActivity(t *testing.T) {
	a := NewAnalyzer(0)
	a.Collect(trace.Event{Kind: trace.KindRoundStart, Round: 2, Node: -1})
	a.Collect(trace.Event{Kind: trace.KindSend, Round: 2, Node: -1, Wire: 64, Frames: 1})
	a.Collect(trace.Event{Kind: trace.KindReceive, Round: 2, Node: -1, Wire: 64})
	a.Collect(trace.Event{Kind: trace.KindEnergy, Round: 2, Node: -1, Joules: 1e-6})
	a.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: 2, Node: -1})

	r := a.Report()
	if r.Nodes != 0 || len(r.PerNode) != 0 {
		t.Errorf("root activity grew the node list to %d", r.Nodes)
	}
	if r.RoundFrames.Count != 1 || r.RoundFrames.Sum != 1 || r.RoundJoules.Sum != 1e-6 {
		t.Errorf("root activity missing from round totals: frames %+v, joules %+v", r.RoundFrames, r.RoundJoules)
	}
}

func TestAnalyzerUnknownBudget(t *testing.T) {
	a := NewAnalyzer(0)
	feed(a)
	r := a.Report()
	if r.Lifetime.ProjectedRounds != 0 {
		t.Errorf("projected rounds with unknown budget = %v, want 0", r.Lifetime.ProjectedRounds)
	}
	if r.Lifetime.MaxDrainPerRound == 0 {
		t.Error("max drain should still be reported with unknown budget")
	}
}

// TestAnalyzerMultiRun replays the same single-run stream twice (round
// indices restarting at zero, as the experiment engine does across
// runs) and checks the analyzer counts six rounds, not three — what
// arrays indexed by round number could not provide.
func TestAnalyzerMultiRun(t *testing.T) {
	a := NewAnalyzer(30e-3)
	feed(a)
	feed(a)
	r := a.Report()
	if r.Rounds != 6 {
		t.Fatalf("rounds after two runs = %d, want 6", r.Rounds)
	}
	// Node 0 joules double, rounds double → drain per round unchanged.
	if got := r.PerNode[0].DrainPerRound; !almost(got, 8e-6/3) {
		t.Errorf("node 0 drain after two runs = %v, want %v", got, 8e-6/3)
	}
	if r.RoundFrames.Count != 6 {
		t.Errorf("round frames count = %d, want 6", r.RoundFrames.Count)
	}
}

func TestAnalyzerHotspotCap(t *testing.T) {
	a := NewAnalyzer(0)
	a.Collect(trace.Event{Kind: trace.KindRoundStart})
	for i := 0; i < 10; i++ {
		a.Collect(trace.Event{Kind: trace.KindEnergy, Node: i, Joules: float64(i + 1)})
	}
	r := a.Report()
	if len(r.Hotspots) != hotspotCount {
		t.Fatalf("hotspots = %d, want %d", len(r.Hotspots), hotspotCount)
	}
	if r.Hotspots[0].Node != 9 {
		t.Errorf("top hotspot = %d, want 9", r.Hotspots[0].Node)
	}
}

// TestHotspotTieOrdering is the regression guard for hotspot ranking on
// load ties: equal-energy nodes must list in ascending node-ID order,
// every time, so two runs of the same study render the same report.
func TestHotspotTieOrdering(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		a := NewAnalyzer(0)
		// Six nodes in scrambled observation order: 4 and 1 tie at the
		// top, 5, 2, and 0 tie below, node 3 is cold.
		a.Collect(trace.Event{Kind: trace.KindRoundStart, Round: 0})
		for _, n := range []int{5, 1, 4, 0, 2} {
			j := 1e-6
			if n == 1 || n == 4 {
				j = 3e-6
			}
			a.Collect(trace.Event{Kind: trace.KindEnergy, Round: 0, Node: n, Joules: j, Aux: trace.EnergySend})
		}
		a.Collect(trace.Event{Kind: trace.KindReceive, Round: 0, Node: 3, Peer: 0, Wire: 8})
		a.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: 0})

		r := a.Report()
		want := []int{1, 4, 0, 2, 5} // energy desc, node asc on ties; cold node 3 excluded
		if len(r.Hotspots) != len(want) {
			t.Fatalf("trial %d: %d hotspots, want %d", trial, len(r.Hotspots), len(want))
		}
		for i, n := range want {
			if r.Hotspots[i].Node != n {
				t.Fatalf("trial %d: hotspots order = %+v, want nodes %v", trial, r.Hotspots, want)
			}
		}
	}
}
