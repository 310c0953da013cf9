package baseline

import (
	"fmt"

	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// TAG is the in-network aggregation baseline [17] with the paper's
// k-value optimization (§5.1.6): the root knows |N| and disseminates k
// once, so each round only the k smallest values of every subtree are
// forwarded and the root picks the k-th. Exact, O(k) values per node
// per round, no state between rounds.
type TAG struct {
	k    int
	vals []int // the root's k smallest, reused every round
}

// NewTAG returns a fresh TAG instance.
func NewTAG() *TAG { return &TAG{} }

// Name implements protocol.Algorithm.
func (t *TAG) Name() string { return "TAG" }

// Init implements protocol.Algorithm: it disseminates the query (k)
// and runs the first collection round.
func (t *TAG) Init(rt *sim.Runtime, k int) (int, error) {
	if k < 1 || k > rt.N() {
		return 0, fmt.Errorf("baseline: TAG rank %d out of [1,%d]", k, rt.N())
	}
	t.k = k
	rt.SetPhase(sim.PhaseInit)
	// Query dissemination: broadcast k once.
	rt.Broadcast(protocol.Request{NBits: rt.Sizes().CounterBits})
	return t.collect(rt)
}

// Step implements protocol.Algorithm.
func (t *TAG) Step(rt *sim.Runtime) (int, error) {
	if t.k == 0 {
		return 0, fmt.Errorf("baseline: TAG not initialized")
	}
	rt.SetPhase(sim.PhaseCollect)
	return t.collect(rt)
}

func (t *TAG) collect(rt *sim.Runtime) (int, error) {
	t.vals = protocol.CollectSmallestK(t.vals, rt, t.k)
	vals := t.vals
	if len(vals) < t.k {
		if len(vals) == 0 {
			return 0, fmt.Errorf("baseline: TAG received no values (loss?)")
		}
		// Under loss, report the best available order statistic.
		return vals[len(vals)-1], nil
	}
	return vals[t.k-1], nil
}
