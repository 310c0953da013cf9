package trace

import "testing"

// TestMetricsSparseNodes feeds a stream whose only per-node activity
// sits at a high node index: the lazily-grown node array must cover the
// index, keep every untouched slot zero, and out-of-range lookups must
// stay zero-valued instead of panicking.
func TestMetricsSparseNodes(t *testing.T) {
	m := NewMetrics()
	m.Collect(Event{Kind: KindSend, Round: 0, Node: 7, Wire: 96, Frames: 2, Values: 3})
	m.Collect(Event{Kind: KindEnergy, Round: 0, Node: 7, Joules: 4e-6, Aux: EnergySend})

	if got := m.Nodes(); got != 8 {
		t.Fatalf("Nodes() = %d, want 8 (index 7 seen)", got)
	}
	for i := 0; i < 7; i++ {
		if m.Node(i) != (NodeStats{}) {
			t.Errorf("node %d: untouched slot not zero: %+v", i, m.Node(i))
		}
	}
	ns := m.Node(7)
	if ns.Sends != 1 || ns.Frames != 2 || ns.BitsOut != 96 || ns.Values != 3 || ns.Joules != 4e-6 {
		t.Errorf("node 7 stats wrong: %+v", ns)
	}
	if m.Node(100) != (NodeStats{}) || m.Node(-1) != (NodeStats{}) {
		t.Error("out-of-range Node() lookups must be zero-valued")
	}
}

// TestMetricsZeroRoundStream checks the empty aggregator and a stream
// that carries no round activity at all.
func TestMetricsZeroRoundStream(t *testing.T) {
	m := NewMetrics()
	if m.Nodes() != 0 || m.Rounds() != 0 {
		t.Fatalf("fresh aggregator not empty: %d nodes, %d rounds", m.Nodes(), m.Rounds())
	}
	if tl := m.energyTimeline(); len(tl) != 0 {
		t.Fatalf("fresh EnergyTimeline has %d entries", len(tl))
	}
	if m.Round(0).Decided {
		t.Error("round 0 of an empty stream reports a decision")
	}
}

// TestMetricsRootActivity: the root (node -1) contributes to round
// counters but must never grow the node array.
func TestMetricsRootActivity(t *testing.T) {
	m := NewMetrics()
	m.Collect(Event{Kind: KindSend, Round: 2, Node: -1, Wire: 64, Frames: 1})
	m.Collect(Event{Kind: KindReceive, Round: 2, Node: -1, Wire: 64})
	m.Collect(Event{Kind: KindEnergy, Round: 2, Node: -1, Joules: 1e-6})

	if m.Nodes() != 0 {
		t.Errorf("root activity grew the node array to %d", m.Nodes())
	}
	rs := m.Round(2)
	if rs.Sends != 1 || rs.Receives != 1 || rs.Bits != 64 || rs.Joules != 1e-6 {
		t.Errorf("root activity missing from round counters: %+v", rs)
	}
	// The sparse round index lazily grew rounds 0 and 1 as zeros.
	if m.Rounds() != 3 {
		t.Errorf("Rounds() = %d, want 3", m.Rounds())
	}
	if m.Round(0).Joules != 0 || m.Round(1).Joules != 0 {
		t.Error("untouched rounds must stay zero")
	}
}

// TestEnergyTimelineMonotonic: per-round entries index exactly like
// Round(i).Joules, every entry is non-negative for a stream of
// non-negative debits, and the cumulative sum is therefore monotone
// non-decreasing — the invariant the lifetime projection rests on.
func TestEnergyTimelineMonotonic(t *testing.T) {
	m := NewMetrics()
	debits := []struct {
		round int
		j     float64
	}{
		{0, 2e-6}, {0, 1e-6}, {2, 5e-7}, {4, 3e-6}, {1, 0},
	}
	for _, d := range debits {
		m.Collect(Event{Kind: KindEnergy, Round: d.round, Node: 0, Joules: d.j})
	}

	tl := m.energyTimeline()
	if len(tl) != m.Rounds() {
		t.Fatalf("timeline has %d entries, Rounds() = %d", len(tl), m.Rounds())
	}
	want := []float64{3e-6, 0, 5e-7, 0, 3e-6}
	if len(tl) != len(want) {
		t.Fatalf("timeline %v, want %v", tl, want)
	}
	cum := 0.0
	for i, got := range tl {
		if got != want[i] {
			t.Errorf("round %d: timeline %g, want %g", i, got, want[i])
		}
		if got != m.Round(i).Joules {
			t.Errorf("round %d: timeline %g != Round().Joules %g", i, got, m.Round(i).Joules)
		}
		if got < 0 {
			t.Errorf("round %d: negative per-round energy %g", i, got)
		}
		next := cum + got
		if next < cum {
			t.Errorf("round %d: cumulative energy decreased (%g -> %g)", i, cum, next)
		}
		cum = next
	}
	if diff := cum - 6.5e-6; diff < -1e-18 || diff > 1e-18 {
		t.Errorf("total energy %g, want 6.5e-6", cum)
	}
}

// energyTimeline returns the network-wide energy debited per round, in
// joules, indexed by round.
func (m *Metrics) energyTimeline() []float64 {
	out := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = r.Joules
	}
	return out
}
