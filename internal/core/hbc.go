// Package core implements the paper's contributions: HBC, the
// Histogram-Based Continuous quantile algorithm whose bucket count
// comes from the cost model of [21] (§4.1, including the §4.1.2
// threshold-broadcast elimination), IQ, the Interval-based Quantiles
// heuristic (§4.2), and the adaptive strategy switcher the paper
// sketches as future work.
package core

import (
	"fmt"

	"wsnq/internal/costmodel"
	"wsnq/internal/mathx"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// HBC is the Histogram Based Continuous algorithm (§4.1): POS-style
// validation around the last quantile, then an iterative b-ary
// histogram refinement of the hint-bounded interval, with b chosen once
// by the cost model of [21].
//
// With NoThresholdBroadcast it runs the §4.1.2 variant ("HBC-NB"):
// nodes use the bounds of the last refinement request as their filter
// interval, so the closing quantile broadcast is elided — at the price
// of re-refining that interval whenever the quantile stays inside it,
// and of forgoing direct retrieval (the paper notes the two cannot be
// combined).
type HBC struct {
	HBCOptions

	k, n   int
	b      int // bucket count from the cost model
	q      int // the exact current quantile (root knowledge)
	lb, ub int // the filter interval nodes validate against
	state  protocol.LEG
	prev   []int
}

// HBCOptions tunes the §4.1 variants.
type HBCOptions struct {
	// Hints selects the validation hint encoding; §5.1.6 uses the
	// single max-distance value.
	Hints protocol.HintMode
	// DirectRetrieval fetches interval values directly once they fit a
	// frame (the [21] improvement).
	DirectRetrieval bool
	// NoThresholdBroadcast enables the §4.1.2 variant.
	NoThresholdBroadcast bool
	// Buckets overrides the cost-model bucket count when positive
	// (used by the ablation benchmarks).
	Buckets int
}

// DefaultHBCOptions is the configuration of §5.1.6.
func DefaultHBCOptions() HBCOptions {
	return HBCOptions{Hints: protocol.HintMaxDistance, DirectRetrieval: true}
}

// NewHBC returns an HBC instance with the given options.
func NewHBC(opts HBCOptions) *HBC { return &HBC{HBCOptions: opts} }

// Name implements protocol.Algorithm.
func (h *HBC) Name() string {
	if h.NoThresholdBroadcast {
		return "HBC-NB"
	}
	return "HBC"
}

// BucketCount returns the bucket count in use (0 before Init).
func (h *HBC) BucketCount() int { return h.b }

// Init implements protocol.Algorithm: the snapshot b-ary search of [21]
// followed by the initial filter broadcast (§4.1.1).
func (h *HBC) Init(rt *sim.Runtime, k int) (int, error) {
	if h.NoThresholdBroadcast && h.DirectRetrieval {
		return 0, fmt.Errorf("core: HBC §4.1.2 variant cannot be combined with direct retrieval")
	}
	b := h.Buckets
	if b <= 0 {
		var err error
		b, err = costmodel.FromSizes(rt.Sizes()).BucketCount(universeSize(rt))
		if err != nil {
			return 0, err
		}
	}
	if b < 2 {
		b = 2
	}
	h.b = b
	rt.SetPhase(sim.PhaseInit)
	res, err := protocol.SnapshotQuantile(rt, k, b)
	if err != nil {
		return 0, err
	}
	h.k, h.n = k, rt.N()
	h.q = res.Value
	h.lb, h.ub = res.Value, res.Value+1
	h.state = res.State
	h.prev = make([]int, h.n)
	h.snapshotPrev(rt)
	rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
	return h.q, nil
}

// Step implements protocol.Algorithm.
func (h *HBC) Step(rt *sim.Runtime) (int, error) {
	if h.prev == nil {
		return 0, fmt.Errorf("core: HBC not initialized")
	}
	rt.SetPhase(sim.PhaseValidation)
	c := protocol.RunValidation(rt, protocol.ValidationSpec{
		Lb: h.lb, Ub: h.ub,
		Prev:  func(n int) int { return h.prev[n] },
		Hints: h.Hints,
	})
	h.state = h.state.Apply(&c)
	defer h.snapshotPrev(rt)

	dir := h.state.Direction(h.k)
	if dir == protocol.RegionEqual && h.ub-h.lb == 1 {
		// The unit filter interval pins the quantile: unchanged.
		return h.q, nil
	}

	hintLo, hintHi, hasLo, hasHi := c.HintBoundsAround(h.lb)
	uniLo, uniHi := rt.Universe()
	var lo, hi, base int
	switch dir {
	case protocol.RegionLess:
		// Quantile dropped: refine [hint, lb) anchored at the right
		// edge, whose below-count L is known.
		lo, hi = uniLo, h.lb
		if hasLo && hintLo > lo {
			lo = hintLo
		}
		base = -1
	case protocol.RegionEqual:
		// §4.1.2 only: the quantile is somewhere inside [lb, ub).
		lo, hi = h.lb, h.ub
		base = h.state.L
	case protocol.RegionGreater:
		// Quantile rose: refine [ub, hint+1) from the left edge.
		lo, hi = h.ub, uniHi+1
		if hasHi && hintHi+1 < hi {
			hi = hintHi + 1
		}
		base = h.state.L + h.state.E
	}
	rt.SetPhase(sim.PhaseRefinement)
	q, flb, fub, st, err := h.descend(rt, lo, hi, base)
	if err != nil {
		if rt.CoverageDeficit() > 0 {
			// The refinement starved behind unreachable subtrees: hold
			// the last answer as a degraded result (tagged with the
			// runtime's rank-error bound) instead of failing the round;
			// the driver's re-initialization replay restores exactness
			// once the tree heals.
			return h.q, nil
		}
		return 0, err
	}
	if h.NoThresholdBroadcast {
		// Nodes keep the last refinement request as their filter.
		h.lb, h.ub = flb, fub
		h.state = protocol.LEG{L: st.L, E: st.E, G: h.n - st.L - st.E}
	} else {
		changed := q != h.q
		h.lb, h.ub = q, q+1
		h.state = st
		if changed {
			rt.SetPhase(sim.PhaseFilter)
			rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
		}
	}
	h.q = q
	return q, nil
}

// descend runs the iterative histogram refinement over [lo, hi) with
// base the exact count below lo, or -1 when it must be derived from the
// right edge (hi == lb, whose below-count is the state's L).
//
// It returns the exact quantile, the last broadcast interval
// [flb, fub) with its LEG (L below flb, E inside), which in basic mode
// collapses to the unit interval around the quantile.
func (h *HBC) descend(rt *sim.Runtime, lo, hi, base int) (q, flb, fub int, st protocol.LEG, err error) {
	perFrame := rt.Sizes().ValuesPerFrame()
	inside := -1 // measurements in [lo, hi); unknown until first histogram
	for iter := 0; ; iter++ {
		if iter > 64 {
			return 0, 0, 0, st, fmt.Errorf("core: HBC refinement diverged in [%d,%d) (round %d)", lo, hi, rt.Round())
		}
		if hi-lo == 1 && base >= 0 && inside >= 0 {
			return lo, lo, hi, protocol.LEG{L: base, E: inside}, nil
		}
		if h.DirectRetrieval && base >= 0 && inside >= 0 && inside <= perFrame {
			rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
			vals := protocol.CollectValuesIn(rt, lo, hi-1)
			idx := h.k - base - 1
			if idx < 0 || idx >= len(vals) {
				return 0, 0, 0, st, fmt.Errorf("core: HBC direct retrieval got %d values in [%d,%d), need index %d", len(vals), lo, hi, idx)
			}
			q = vals[idx]
			st = protocol.LEG{L: base + mathx.CountLess(vals, q), E: mathx.CountEqual(vals, q)}
			return q, q, q + 1, st, nil
		}
		bu, buErr := protocol.NewBuckets(lo, hi, h.b)
		if buErr != nil {
			return 0, 0, 0, st, buErr
		}
		rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
		counts := protocol.CollectHistogram(rt, bu)
		if base < 0 {
			total := 0
			for _, c := range counts {
				total += c
			}
			base = h.state.L - total
		}
		// The broadcast interval is the node-side filter candidate in
		// §4.1.2 mode; remember it with its exact counts.
		flb, fub = lo, hi
		insideParent := 0
		for _, c := range counts {
			insideParent += c
		}
		st = protocol.LEG{L: base, E: insideParent}

		idx, before, obErr := protocol.OwningBucket(counts, h.k-base)
		if obErr != nil {
			return 0, 0, 0, st, fmt.Errorf("core: HBC refinement in [%d,%d): %w", lo, hi, obErr)
		}
		lo, hi = bu.Bounds(idx)
		base += before
		inside = counts[idx]
		if hi-lo == 1 {
			if h.NoThresholdBroadcast {
				// Stop here: the quantile is pinned, nodes keep the
				// parent interval [flb, fub) as their filter.
				return lo, flb, fub, st, nil
			}
			return lo, lo, hi, protocol.LEG{L: base, E: inside}, nil
		}
	}
}

func (h *HBC) snapshotPrev(rt *sim.Runtime) {
	for i := range h.prev {
		h.prev[i] = rt.Reading(i)
	}
}

// universeSize returns the number of distinct values in the runtime's
// universe (the τ of the cost model).
func universeSize(rt *sim.Runtime) int {
	lo, hi := rt.Universe()
	return hi - lo + 1
}
