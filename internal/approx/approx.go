// Package approx implements representatives of the two non-exact
// algorithm classes the paper's related-work section (§3.1)
// distinguishes, for the repository's exactness-cost extension study:
//
//   - QD: an *approximate* algorithm — per-round in-network aggregation
//     of q-digest summaries [Shrivastava et al.], with deterministic
//     rank error at most n·log(σ)/k.
//   - Sample: a *probabilistic* algorithm — per-round uniform sampling
//     of node values [4], estimating the quantile from the sample's
//     order statistics with no deterministic guarantee.
//
// Both satisfy protocol.Algorithm but return approximate answers; the
// experiment harness measures their rank error alongside their energy.
package approx

import (
	"fmt"
	"math/bits"
	"sort"

	"wsnq/internal/protocol"
	"wsnq/internal/qdigest"
	"wsnq/internal/sim"
)

// QD answers each round by aggregating q-digests up the routing tree.
// It keeps no state between rounds (its cost is insensitive to temporal
// correlation, which is exactly what the extension study probes).
type QD struct {
	// K is the q-digest compression parameter; rank error is bounded by
	// |N|·log₂(σ)/K.
	K int

	k, n   int
	offset int // universe lower bound (digests index from 0)
	size   int // universe size
}

// NewQD returns a q-digest algorithm with compression parameter k.
func NewQD(compression int) *QD { return &QD{K: compression} }

// Name implements protocol.Algorithm.
func (q *QD) Name() string { return fmt.Sprintf("QD(k=%d)", q.K) }

// Init implements protocol.Algorithm.
func (q *QD) Init(rt *sim.Runtime, k int) (int, error) {
	if k < 1 || k > rt.N() {
		return 0, fmt.Errorf("approx: rank %d out of [1,%d]", k, rt.N())
	}
	if q.K < 1 {
		return 0, fmt.Errorf("approx: compression parameter %d must be >= 1", q.K)
	}
	lo, hi := rt.Universe()
	q.k, q.n = k, rt.N()
	q.offset = lo
	q.size = hi - lo + 1
	// Query dissemination (k and the compression parameter).
	rt.SetPhase(sim.PhaseInit)
	rt.Broadcast(protocol.Request{NBits: 2 * rt.Sizes().CounterBits})
	return q.Step(rt)
}

// Step implements protocol.Algorithm.
func (q *QD) Step(rt *sim.Runtime) (int, error) {
	if q.n == 0 {
		return 0, fmt.Errorf("approx: QD not initialized")
	}
	rt.SetPhase(sim.PhaseCollect)
	sizes := rt.Sizes()
	idBits := bits.Len(uint(2*q.size-1)) + 1
	// Every sensor adds its reading to a digest, so the walk lists them
	// all and no node is left out.
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		d, err := qdigest.New(q.size, q.K)
		if err != nil {
			return nil
		}
		if err := d.Add(rt.Reading(n)-q.offset, 1); err != nil {
			return nil
		}
		for _, ch := range children {
			if err := d.Merge(ch.(*digestPayload).d); err != nil {
				return nil
			}
		}
		d.Compress()
		return &digestPayload{d: d, idBits: idBits, countBits: sizes.CounterBits}
	})
	root, err := qdigest.New(q.size, q.K)
	if err != nil {
		return 0, err
	}
	for _, p := range atRoot {
		if err := root.Merge(p.(*digestPayload).d); err != nil {
			return 0, err
		}
	}
	v, err := root.Quantile(int64(q.k))
	if err != nil {
		return 0, err
	}
	return v + q.offset, nil
}

// digestPayload carries a q-digest up the tree.
type digestPayload struct {
	d                 *qdigest.Digest
	idBits, countBits int
}

// Bits implements sim.Payload.
func (p *digestPayload) Bits() int { return p.d.SizeBits(p.idBits, p.countBits) }

// Sample estimates the quantile from a per-round uniform node sample.
type Sample struct {
	// Prob is each node's independent inclusion probability per round.
	Prob float64

	k, n    int
	round   uint64
	seed    uint64
	last    int
	hasLast bool
}

// NewSample returns a sampling algorithm with inclusion probability p.
func NewSample(p float64) *Sample { return &Sample{Prob: p} }

// Name implements protocol.Algorithm.
func (s *Sample) Name() string { return fmt.Sprintf("SMPL(%.0f%%)", s.Prob*100) }

// Init implements protocol.Algorithm.
func (s *Sample) Init(rt *sim.Runtime, k int) (int, error) {
	if k < 1 || k > rt.N() {
		return 0, fmt.Errorf("approx: rank %d out of [1,%d]", k, rt.N())
	}
	if s.Prob <= 0 || s.Prob > 1 {
		return 0, fmt.Errorf("approx: sampling probability %v out of (0,1]", s.Prob)
	}
	s.k, s.n = k, rt.N()
	s.seed = 0x5A17ED ^ uint64(k)<<20 ^ uint64(rt.N())
	rt.SetPhase(sim.PhaseInit)
	rt.Broadcast(protocol.Request{NBits: rt.Sizes().CounterBits})
	return s.Step(rt)
}

// Step implements protocol.Algorithm.
func (s *Sample) Step(rt *sim.Runtime) (int, error) {
	if s.n == 0 {
		return 0, fmt.Errorf("approx: Sample not initialized")
	}
	rt.SetPhase(sim.PhaseCollect)
	s.round++
	sample := protocol.GatherValues(rt, rt.Topology().PostOrder, func(n, _ int) bool { return s.included(n) }, nil)
	if len(sample) == 0 {
		// An empty draw can happen at small n·p; reuse the previous
		// estimate (stale but available), as a deployed system would.
		if !s.hasLast {
			return 0, fmt.Errorf("approx: empty first sample (p=%v too small?)", s.Prob)
		}
		return s.last, nil
	}
	sort.Ints(sample)
	// Map the global rank onto the sample.
	idx := int(float64(s.k) / float64(s.n) * float64(len(sample)))
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	s.last, s.hasLast = sample[idx], true
	return s.last, nil
}

// included decides the node's participation this round, via a
// deterministic per-(seed, node, round) hash so runs are reproducible.
func (s *Sample) included(node int) bool {
	x := s.seed ^ (uint64(node)+1)*0x9E3779B97F4A7C15 ^ s.round*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return float64(x>>11)/float64(1<<53) < s.Prob
}
