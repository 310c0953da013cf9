package trace

// NodeStats aggregates one node's radio and energy activity.
type NodeStats struct {
	Sends    int     // transmissions originated
	Receives int     // receptions
	Drops    int     // convergecast payloads lost after this node sent them
	Frames   int     // link-layer frames transmitted
	BitsOut  int     // wire bits transmitted
	BitsIn   int     // wire bits received
	Values   int     // raw measurements shipped
	Joules   float64 // total energy debited
}

// RoundStats aggregates one round's activity across the network.
type RoundStats struct {
	Sends    int     // transmissions (root included)
	Receives int     // receptions
	Drops    int     // lost convergecast payloads
	Bits     int     // wire bits on the air
	Frames   int     // link-layer frames
	Values   int     // raw measurements shipped
	Refines  int     // refinement/collection requests issued
	Joules   float64 // network-wide energy debited
	Decision int     // the root's reported quantile
	K        int     // the queried rank
	Decided  bool    // whether a decision event arrived
}

// Metrics is a collector that folds the event stream into per-node and
// per-round counters plus an energy timeline — the always-on
// observability view of a run (as opposed to the full event log a
// Recorder or Writer keeps).
type Metrics struct {
	nodes  []NodeStats
	rounds []RoundStats
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) node(i int) *NodeStats {
	for len(m.nodes) <= i {
		m.nodes = append(m.nodes, NodeStats{})
	}
	return &m.nodes[i]
}

func (m *Metrics) round(r int) *RoundStats {
	for len(m.rounds) <= r {
		m.rounds = append(m.rounds, RoundStats{})
	}
	return &m.rounds[r]
}

// Collect implements Collector. Root activity (node -1) contributes to
// the round counters but not to any per-node entry.
func (m *Metrics) Collect(e Event) {
	rs := m.round(e.Round)
	switch e.Kind {
	case KindSend:
		rs.Sends++
		rs.Bits += e.Wire
		rs.Frames += e.Frames
		rs.Values += e.Values
		if e.Node >= 0 {
			ns := m.node(e.Node)
			ns.Sends++
			ns.Frames += e.Frames
			ns.BitsOut += e.Wire
			ns.Values += e.Values
		}
	case KindReceive:
		rs.Receives++
		if e.Node >= 0 {
			ns := m.node(e.Node)
			ns.Receives++
			ns.BitsIn += e.Wire
		}
	case KindDrop:
		rs.Drops++
		if e.Node >= 0 {
			m.node(e.Node).Drops++
		}
	case KindEnergy:
		rs.Joules += e.Joules
		if e.Node >= 0 {
			m.node(e.Node).Joules += e.Joules
		}
	case KindDecision:
		rs.Decision, rs.K, rs.Decided = e.Value, e.Aux, true
	case KindRefine:
		rs.Refines++
	}
}

// Nodes returns the number of nodes seen so far.
func (m *Metrics) Nodes() int { return len(m.nodes) }

// Node returns the aggregated statistics of one node (zero-valued for
// nodes never seen).
func (m *Metrics) Node(i int) NodeStats {
	if i < 0 || i >= len(m.nodes) {
		return NodeStats{}
	}
	return m.nodes[i]
}

// Rounds returns the number of rounds seen so far.
func (m *Metrics) Rounds() int { return len(m.rounds) }

// Round returns the aggregated statistics of one round.
func (m *Metrics) Round(r int) RoundStats {
	if r < 0 || r >= len(m.rounds) {
		return RoundStats{}
	}
	return m.rounds[r]
}
