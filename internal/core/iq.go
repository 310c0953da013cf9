package core

import (
	"fmt"
	"sort"

	"wsnq/internal/mathx"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// IQ is the Interval-based Quantiles heuristic (§4.2), the paper's main
// contribution. Nodes ship their raw values during validation whenever
// they fall inside the adaptive interval Ξ = [v+ξ_l, v+ξ_r] around the
// last quantile; if the new quantile lies in Ξ the round ends after a
// single convergecast, otherwise exactly one refinement convergecast
// fetches the f missing order statistics. Ξ tracks the trend of the
// last m quantiles: ξ_l = min(min Δ, 0), ξ_r = max(max Δ, 0).
type IQ struct {
	IQOptions

	k, n    int
	filter  int // v^{t-1}, known to all nodes
	state   protocol.LEG
	prev    []int
	xiL     int     // ξ_l <= 0
	xiR     int     // ξ_r >= 0
	hist    []int   // the m most recent quantiles, oldest first
	xiScale float64 // controller-applied Ξ scale; 0 or 1 = paper behavior

	// The root's attached multiset and refinement response, reused
	// every round.
	attached, extreme []int
}

// IQOptions tunes §4.2's knobs.
type IQOptions struct {
	// M is the trend window length m (quantiles remembered). Default 8.
	M int
	// InitC is the constant c of the ξ seeding ξ = c·(v_k − v_1)/k.
	// Default 1.
	InitC float64
	// InitMedianGap seeds ξ from the median gap between consecutive
	// initial values instead of the average, the outlier-robust variant
	// §4.2.1 suggests.
	InitMedianGap bool
	// Hints selects the validation hint encoding (§5.1.6: the same
	// max-distance hint as HBC).
	Hints protocol.HintMode
}

// DefaultIQOptions is the configuration of §5.1.6.
func DefaultIQOptions() IQOptions {
	return IQOptions{M: 8, InitC: 1, Hints: protocol.HintMaxDistance}
}

// NewIQ returns an IQ instance with the given options.
func NewIQ(opts IQOptions) *IQ {
	if opts.M < 2 {
		opts.M = 2
	}
	if opts.InitC <= 0 {
		opts.InitC = 1
	}
	return &IQ{IQOptions: opts}
}

// Name implements protocol.Algorithm.
func (q *IQ) Name() string { return "IQ" }

// Xi returns the current interval offsets (ξ_l, ξ_r).
func (q *IQ) Xi() (xiL, xiR int) { return q.xiL, q.xiR }

// Ξ-scale clamp bounds: a controller can widen the interval at most
// 8-fold and narrow it to at most a quarter of the trend-derived ξ.
const (
	minXiScale = 0.25
	maxXiScale = 8
)

// ScaleXi multiplies the controller's Ξ scale by factor (>1 widens the
// interval, <1 narrows it), clamped to [0.25, 8]. The scale is applied
// on top of the §4.2.2 trend recomputation every round, so it acts as a
// standing bias rather than a one-shot nudge: a widened interval
// tolerates larger value swings (fewer refinements and filter
// broadcasts — the closed-loop response to a refinement storm or fault
// window), a narrowed one validates more aggressively after rank-error
// excursions. Returns false for a non-positive factor.
func (q *IQ) ScaleXi(factor float64) bool {
	if factor <= 0 {
		return false
	}
	s := q.xiScale
	if s == 0 {
		s = 1
	}
	s *= factor
	if s < minXiScale {
		s = minXiScale
	}
	if s > maxXiScale {
		s = maxXiScale
	}
	q.xiScale = s
	q.applyXiScale()
	return true
}

// XiScale returns the standing controller scale (1 when untouched).
func (q *IQ) XiScale() float64 {
	if q.xiScale == 0 {
		return 1
	}
	return q.xiScale
}

// applyXiScale stretches the trend-derived offsets by the standing
// scale. Widening guarantees at least one unit of slack on both sides
// (a degenerate [0,0] interval would otherwise stay degenerate however
// large the scale); narrowing rounds toward zero.
func (q *IQ) applyXiScale() {
	s := q.xiScale
	if s == 0 || s == 1 {
		return
	}
	q.xiL = int(float64(q.xiL) * s)
	q.xiR = int(float64(q.xiR) * s)
	if s > 1 {
		if q.xiL > -1 {
			q.xiL = -1
		}
		if q.xiR < 1 {
			q.xiR = 1
		}
	}
}

// Filter returns the current filter value v^{t-1}.
func (q *IQ) Filter() int { return q.filter }

// Init implements protocol.Algorithm: TAG initialization (§4.2.1), ξ
// seeding from the collected value distribution, and the (v_k, ξ)
// broadcast.
func (q *IQ) Init(rt *sim.Runtime, k int) (int, error) {
	rt.SetPhase(sim.PhaseInit)
	res, all, err := protocol.SnapshotFull(rt, k)
	if err != nil {
		return 0, err
	}
	q.k, q.n = k, rt.N()
	q.filter = res.Value
	q.state = res.State
	q.prev = make([]int, q.n)
	q.snapshotPrev(rt)

	kk := k
	if kk > len(all) {
		// Degraded initialization: fewer values than ranks reached the
		// root (crashed or orphaned subtrees); seed from what arrived.
		kk = len(all)
	}
	xi := q.seedXi(all[:kk])
	q.xiL, q.xiR = -xi, xi
	q.hist = append(q.hist[:0], q.filter)

	// Broadcast the tuple (v_k, ξ).
	rt.Broadcast(protocol.Request{NBits: 2 * protocol.FilterBroadcastBits(rt.Sizes())})
	return q.filter, nil
}

// seedXi derives the initial ξ from the k smallest initial values: the
// (scaled) average gap, or the outlier-robust median gap.
func (q *IQ) seedXi(smallestK []int) int {
	if len(smallestK) < 2 {
		return 1
	}
	k := len(smallestK)
	if q.InitMedianGap {
		gaps := make([]int, 0, k-1)
		for i := 1; i < k; i++ {
			gaps = append(gaps, smallestK[i]-smallestK[i-1])
		}
		g := mathx.MedianInts(gaps)
		if g < 1 {
			g = 1
		}
		return g
	}
	span := smallestK[k-1] - smallestK[0]
	xi := int(q.InitC * float64(span) / float64(k))
	if xi < 1 {
		xi = 1
	}
	return xi
}

// Step implements protocol.Algorithm.
func (q *IQ) Step(rt *sim.Runtime) (int, error) {
	if q.prev == nil {
		return 0, fmt.Errorf("core: IQ not initialized")
	}
	xiLo := q.filter + q.xiL
	xiHi := q.filter + q.xiR
	rt.SetPhase(sim.PhaseValidation)
	c := protocol.RunValidation(q.attached, rt, protocol.ValidationSpec{
		Lb: q.filter, Ub: q.filter + 1,
		Prev:  func(n int) int { return q.prev[n] },
		Hints: q.Hints,
		Attach: func(n, v int) bool {
			return v >= xiLo && v <= xiHi && v != q.filter
		},
	})
	q.state = q.state.Apply(&c)
	defer q.snapshotPrev(rt)

	a := c.Attached // sorted ascending by RunValidation
	q.attached = a
	newQ, err := q.resolve(rt, &c, a, xiLo, xiHi)
	if err != nil {
		return 0, err
	}
	// Filter broadcast (§4.2.2): only when the quantile changed; nodes
	// re-derive ξ from the broadcast quantile history themselves.
	if newQ != q.filter {
		rt.SetPhase(sim.PhaseFilter)
		rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
		q.filter = newQ
	}
	q.observe(newQ)
	return newQ, nil
}

// resolve determines the exact new quantile from the validation result,
// running at most one refinement convergecast, and updates the state.
func (q *IQ) resolve(rt *sim.Runtime, c *protocol.Counters, a []int, xiLo, xiHi int) (int, error) {
	st := q.state
	k, n := q.k, q.n
	switch st.Direction(k) {
	case protocol.RegionEqual:
		// v^t = v^{t-1}: nothing to transmit.
		return q.filter, nil

	case protocol.RegionLess:
		// below holds A's values < v^{t-1}, i.e. all of [Ξ_lo, v^{t-1}).
		below := a[:sort.SearchInts(a, q.filter)]
		na := len(below)
		outside := st.L - na // measurements below Ξ_lo
		if outside < k {
			// The new quantile is inside A.
			v := below[k-outside-1]
			q.state = legFromBelow(outside+mathx.CountLess(below, v), mathx.CountEqual(below, v), n)
			return v, nil
		}
		// One refinement: fetch the f1 largest values below Ξ_lo.
		f1 := st.L - k - na + 1
		lo, _ := rt.Universe()
		if hintLo, _, hasLo, _ := c.HintBoundsAround(q.filter); hasLo && hintLo > lo {
			lo = hintLo
		}
		rt.SetPhase(sim.PhaseRefinement)
		rt.Broadcast(protocol.Request{NBits: protocol.CountedRequestBits(rt.Sizes())})
		q.extreme = protocol.CollectExtreme(q.extreme, rt, lo, xiLo-1, f1, true)
		r := q.extreme
		if len(r) < f1 {
			// A shortfall while the round's coverage is incomplete
			// degrades the answer (the missing order statistics sit in
			// unreachable subtrees, covered by the reported rank-error
			// bound); with full coverage it is a desynchronization.
			if rt.CoverageDeficit() == 0 {
				return 0, fmt.Errorf("core: IQ refinement got %d of %d values below %d (round %d)", len(r), f1, xiLo, rt.Round())
			}
			if len(r) == 0 {
				return q.filter, nil
			}
			f1 = len(r)
		}
		v := r[len(r)-f1] // the f1-th largest
		geq := len(r) - mathx.CountLess(r, v)
		q.state = legFromBelow(outside-geq, mathx.CountEqual(r, v), n)
		return v, nil

	case protocol.RegionGreater:
		above := a[sort.SearchInts(a, q.filter+1):] // A's values > v^{t-1}
		nb := len(above)
		baseUp := st.L + st.E // measurements at or below v^{t-1}
		if baseUp+nb >= k {
			v := above[k-baseUp-1]
			q.state = legFromBelow(baseUp+mathx.CountLess(above, v), mathx.CountEqual(above, v), n)
			return v, nil
		}
		f2 := k - baseUp - nb
		_, hi := rt.Universe()
		if _, hintHi, _, hasHi := c.HintBoundsAround(q.filter); hasHi && hintHi < hi {
			hi = hintHi
		}
		rt.SetPhase(sim.PhaseRefinement)
		rt.Broadcast(protocol.Request{NBits: protocol.CountedRequestBits(rt.Sizes())})
		q.extreme = protocol.CollectExtreme(q.extreme, rt, xiHi+1, hi, f2, false)
		r := q.extreme
		if len(r) < f2 {
			if rt.CoverageDeficit() == 0 {
				return 0, fmt.Errorf("core: IQ refinement got %d of %d values above %d (round %d)", len(r), f2, xiHi, rt.Round())
			}
			if len(r) == 0 {
				return q.filter, nil
			}
			f2 = len(r)
		}
		v := r[f2-1] // the f2-th smallest
		q.state = legFromBelow(baseUp+nb+mathx.CountLess(r, v), mathx.CountEqual(r, v), n)
		return v, nil
	}
	return 0, fmt.Errorf("core: IQ unreachable direction")
}

// observe appends the round's quantile to the trend window, keeping the
// last m in place, and recomputes ξ per §4.2.2:
//
//	ξ_l = min(min_{i} (v^i − v^{i−1}), 0)
//	ξ_r = max(max_{i} (v^i − v^{i−1}), 0)
//
// over the deltas of the m most recent quantiles.
func (q *IQ) observe(v int) {
	q.hist = append(q.hist, v)
	if len(q.hist) > q.M {
		// Copy down rather than re-slice forward, so the window keeps
		// its storage and the append above stops reallocating.
		q.hist = q.hist[:copy(q.hist, q.hist[len(q.hist)-q.M:])]
	}
	xiL, xiR := 0, 0
	for i := 1; i < len(q.hist); i++ {
		d := q.hist[i] - q.hist[i-1]
		if d < xiL {
			xiL = d
		}
		if d > xiR {
			xiR = d
		}
	}
	q.xiL, q.xiR = xiL, xiR
	q.applyXiScale()
}

// legFromBelow assembles the LEG around a point filter from the exact
// below-count and equal-count.
func legFromBelow(below, equal, n int) protocol.LEG {
	return protocol.LEG{L: below, E: equal, G: n - below - equal}
}

func (q *IQ) snapshotPrev(rt *sim.Runtime) {
	for i := range q.prev {
		q.prev[i] = rt.Reading(i)
	}
}
