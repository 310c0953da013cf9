package telemetry

import (
	"sort"
	"sync"

	"wsnq/internal/mathx"
	"wsnq/internal/trace"
)

// Analyzer is a trace.Collector that folds the flight-recorder stream
// into a network-health view: per-node load distributions, hotspot
// nodes, Jain's fairness index, per-round convergecast cost
// percentiles, and a first-node-death lifetime projection from ledger
// drain rates.
//
// Round indices restart at zero in every run of a multi-run study, so
// the Analyzer never indexes by them: it counts round-start events to
// learn the true number of rounds executed and keeps bounded
// histograms of per-round-instance cost — so its statistics stay
// meaningful across an entire experiment grid.
//
// All methods are safe for concurrent use: Collect is serialized
// against Report, so a live /health endpoint can read while a study
// runs.
type Analyzer struct {
	mu     sync.Mutex
	budget float64    // initial per-node energy budget, joules (0 = unknown)
	nodes  []NodeLoad // per-node counters, by node index; DrainPerRound unset

	rounds    int  // round-start events seen (true round count across runs)
	open      bool // a round is in progress
	curFrames int
	curJoules float64
	frames    *Histogram // link-layer frames per completed round
	joules    *Histogram // network joules per completed round
}

// NewAnalyzer returns an analyzer projecting lifetime against the given
// initial per-node energy budget in joules (pass 0 if unknown; the
// projection is then omitted).
func NewAnalyzer(budget float64) *Analyzer {
	return &Analyzer{
		budget: budget,
		frames: NewHistogram(DefaultHistogramCap),
		joules: NewHistogram(DefaultHistogramCap),
	}
}

// Collect implements trace.Collector.
func (a *Analyzer) Collect(e trace.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Kind {
	case trace.KindRoundStart:
		a.rounds++
		a.open = true
		a.curFrames = 0
		a.curJoules = 0
	case trace.KindRoundEnd:
		if a.open {
			a.frames.Observe(float64(a.curFrames))
			a.joules.Observe(a.curJoules)
			a.open = false
		}
	case trace.KindSend:
		a.curFrames += e.Frames
		if n := a.node(e.Node); n != nil {
			n.Sends++
			n.Frames += e.Frames
			n.BitsOut += e.Wire
		}
	case trace.KindReceive:
		if n := a.node(e.Node); n != nil {
			n.Receives++
		}
	case trace.KindDrop:
		a.node(e.Node) // the lost hop's node counts as seen
	case trace.KindEnergy:
		a.curJoules += e.Joules
		if n := a.node(e.Node); n != nil {
			n.Joules += e.Joules
		}
	}
}

// node returns node i's counters, growing the slice to cover i; nil for
// the root (i < 0), whose activity counts toward the round totals only.
func (a *Analyzer) node(i int) *NodeLoad {
	if i < 0 {
		return nil
	}
	for len(a.nodes) <= i {
		a.nodes = append(a.nodes, NodeLoad{Node: len(a.nodes)})
	}
	return &a.nodes[i]
}

// Distribution summarizes a per-node load vector.
type Distribution struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// NodeLoad is one node's aggregated load.
type NodeLoad struct {
	Node          int     `json:"node"`
	Sends         int     `json:"sends"`
	Receives      int     `json:"receives"`
	Frames        int     `json:"frames"`
	BitsOut       int     `json:"bits_out"`
	Joules        float64 `json:"joules"`
	DrainPerRound float64 `json:"drain_per_round"`
}

// Hotspot is one of the most energy-loaded nodes.
type Hotspot struct {
	Node   int     `json:"node"`
	Joules float64 `json:"joules"`
	Share  float64 `json:"share"` // fraction of network-wide energy
}

// Lifetime is the first-node-death projection: with the hottest node
// draining MaxDrainPerRound joules each round from an initial Budget,
// the network loses its first node after ProjectedRounds rounds.
// ProjectedRounds is 0 when no projection is possible (unknown budget
// or no drain observed) — never infinity, so the report marshals to
// JSON cleanly.
type Lifetime struct {
	Budget           float64 `json:"budget_j"`
	HottestNode      int     `json:"hottest_node"`
	MaxDrainPerRound float64 `json:"max_drain_j_per_round"`
	ProjectedRounds  float64 `json:"projected_rounds"`
}

// HealthReport is the analyzer's aggregated view of network health.
type HealthReport struct {
	Nodes  int `json:"nodes"`
	Rounds int `json:"rounds"`

	// Per-node load distributions and Jain's fairness index
	// J = (Σx)² / (n·Σx²), 1 = perfectly balanced, 1/n = one node
	// carries everything. J is defined as 1 for an all-zero vector.
	Messages     Distribution `json:"messages"` // sends per node
	Energy       Distribution `json:"energy"`   // joules per node
	JainMessages float64      `json:"jain_messages"`
	JainEnergy   float64      `json:"jain_energy"`

	Hotspots []Hotspot `json:"hotspots"` // top nodes by energy
	Lifetime Lifetime  `json:"lifetime"`

	// Per-round convergecast cost percentiles. The round-based
	// simulator has no wall clock, so latency is proxied by TDMA slot
	// count: link-layer frames transmitted per round.
	RoundFrames HistogramSnapshot `json:"round_frames"`
	RoundJoules HistogramSnapshot `json:"round_joules"`

	PerNode []NodeLoad `json:"per_node"`
}

// hotspotCount caps the hotspot list in a report.
const hotspotCount = 5

// jain returns Jain's fairness index (Σx)²/(n·Σx²) of a load vector,
// defined as 1 for empty or all-zero input (nothing is unfair about
// zero load).
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func distribution(xs []float64) Distribution {
	if len(xs) == 0 {
		return Distribution{}
	}
	var sum, max float64
	for i, x := range xs {
		sum += x
		if i == 0 || x > max {
			max = x
		}
	}
	return Distribution{
		Mean: sum / float64(len(xs)),
		P50:  mathx.QuantileFloat64(xs, 0.50),
		P95:  mathx.QuantileFloat64(xs, 0.95),
		P99:  mathx.QuantileFloat64(xs, 0.99),
		Max:  max,
	}
}

// Report computes the current health view. It may be called at any
// time, including while a study is still feeding events.
func (a *Analyzer) Report() HealthReport {
	a.mu.Lock()
	defer a.mu.Unlock()

	n := len(a.nodes)
	r := HealthReport{
		Nodes:       n,
		Rounds:      a.rounds,
		RoundFrames: a.frames.Snapshot(),
		RoundJoules: a.joules.Snapshot(),
		Lifetime:    Lifetime{Budget: a.budget, HottestNode: -1},
	}

	sends := make([]float64, n)
	joules := make([]float64, n)
	var totalJoules float64
	r.PerNode = make([]NodeLoad, n)
	copy(r.PerNode, a.nodes)
	for i := range r.PerNode {
		load := &r.PerNode[i]
		sends[i] = float64(load.Sends)
		joules[i] = load.Joules
		totalJoules += load.Joules
		if a.rounds > 0 {
			load.DrainPerRound = load.Joules / float64(a.rounds)
		}
	}

	r.Messages = distribution(sends)
	r.Energy = distribution(joules)
	r.JainMessages = jain(sends)
	r.JainEnergy = jain(joules)

	// Hotspots: top nodes by energy (stable node-index tie-break).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if joules[order[x]] != joules[order[y]] {
			return joules[order[x]] > joules[order[y]]
		}
		return order[x] < order[y]
	})
	for _, i := range order {
		if len(r.Hotspots) == hotspotCount || joules[i] == 0 {
			break
		}
		h := Hotspot{Node: i, Joules: joules[i]}
		if totalJoules > 0 {
			h.Share = joules[i] / totalJoules
		}
		r.Hotspots = append(r.Hotspots, h)
	}

	// Lifetime projection from the hottest node's drain rate.
	if n > 0 && a.rounds > 0 {
		hottest, maxDrain := -1, 0.0
		for i := 0; i < n; i++ {
			if d := joules[i] / float64(a.rounds); d > maxDrain {
				hottest, maxDrain = i, d
			}
		}
		r.Lifetime.HottestNode = hottest
		r.Lifetime.MaxDrainPerRound = maxDrain
		if a.budget > 0 && maxDrain > 0 {
			r.Lifetime.ProjectedRounds = a.budget / maxDrain
		}
	}
	return r
}
