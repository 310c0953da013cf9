package baseline

import (
	"fmt"

	"wsnq/internal/mathx"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// POS is the continuous binary-search algorithm of Cox et al. [9]
// (§3.2): the last quantile acts as a filter; each round begins with a
// validation convergecast of region-movement counters and min/max
// hints; when the rank check fails, the root binary-searches the
// hint-bounded interval by broadcasting midpoints that nodes answer
// with region-switch counters, switching to direct value retrieval once
// the candidates provably fit a single frame.
type POS struct {
	POSOptions

	k, n   int
	filter int          // current threshold, known to all nodes
	state  protocol.LEG // counts around [filter, filter+1)
	prev   []int        // per-node previous-round measurement
	// cdf records, for every threshold x probed this round, the exact
	// number of measurements strictly below x. Counts go stale between
	// rounds, so it is cleared and refilled after every validation.
	cdf map[int]int
	// vals is the direct retrieval's buffer, reused every round.
	vals []int
}

// POSOptions tunes the protocol variants described in §3.2 and §5.1.6.
type POSOptions struct {
	// Hints selects the hint encoding in validation messages; POS's
	// published configuration is two values (min and max of changed
	// measurements).
	Hints protocol.HintMode
	// DirectRetrieval enables requesting all candidate values directly
	// once they provably fit a single frame.
	DirectRetrieval bool
}

// DefaultPOSOptions is the configuration of §5.1.6.
func DefaultPOSOptions() POSOptions {
	return POSOptions{Hints: protocol.HintTwoValues, DirectRetrieval: true}
}

// NewPOS returns a POS instance with the given options.
func NewPOS(opts POSOptions) *POS { return &POS{POSOptions: opts} }

// Name implements protocol.Algorithm.
func (p *POS) Name() string { return "POS" }

// Init implements protocol.Algorithm: TAG-style full collection (§3.2)
// followed by the filter broadcast.
func (p *POS) Init(rt *sim.Runtime, k int) (int, error) {
	rt.SetPhase(sim.PhaseInit)
	res, _, err := protocol.SnapshotFull(rt, k)
	if err != nil {
		return 0, err
	}
	p.k, p.n = k, rt.N()
	p.filter = res.Value
	p.state = res.State
	p.prev = make([]int, p.n)
	p.snapshotPrev(rt)
	rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
	return p.filter, nil
}

// Step implements protocol.Algorithm.
func (p *POS) Step(rt *sim.Runtime) (int, error) {
	if p.prev == nil {
		return 0, fmt.Errorf("baseline: POS not initialized")
	}
	rt.SetPhase(sim.PhaseValidation)
	c := protocol.RunValidation(nil, rt, protocol.ValidationSpec{
		Lb: p.filter, Ub: p.filter + 1,
		Prev:  func(n int) int { return p.prev[n] },
		Hints: p.Hints,
	})
	p.state = p.state.Apply(&c)
	if p.cdf == nil {
		p.cdf = make(map[int]int)
	}
	clear(p.cdf)
	p.cdf[p.filter] = p.state.L
	p.cdf[p.filter+1] = p.state.L + p.state.E
	defer p.snapshotPrev(rt)

	if p.state.Valid(p.k) {
		return p.filter, nil // quantile unchanged, nothing to transmit
	}
	hintLo, hintHi, hasLo, hasHi := c.HintBoundsAround(p.filter)
	uniLo, uniHi := rt.Universe()
	var lo, hi int
	switch p.state.Direction(p.k) {
	case protocol.RegionLess:
		lo, hi = uniLo, p.filter-1
		if hasLo && hintLo > lo {
			lo = hintLo
		}
	case protocol.RegionGreater:
		lo, hi = p.filter+1, uniHi
		if hasHi && hintHi < hi {
			hi = hintHi
		}
	}
	return p.refine(rt, lo, hi)
}

// refine binary-searches the candidate interval [lo, hi], which is
// guaranteed to contain the rank-k value.
func (p *POS) refine(rt *sim.Runtime, lo, hi int) (int, error) {
	rt.SetPhase(sim.PhaseRefinement)
	perFrame := rt.Sizes().ValuesPerFrame()
	for iter := 0; ; iter++ {
		if lo > hi || iter > 80 {
			return 0, fmt.Errorf("baseline: POS search diverged in [%d,%d] (round %d)", lo, hi, rt.Round())
		}
		if p.DirectRetrieval {
			if ub, ok := p.candidateUpperBound(lo, hi); ok && ub <= perFrame {
				return p.direct(rt, lo, hi)
			}
		}
		mid := lo + (hi-lo)/2
		st := p.probe(rt, mid)
		switch {
		case st.Valid(p.k):
			// The probe is the quantile; nodes already treat it as the
			// new filter, so no closing broadcast is needed (§3.2).
			return mid, nil
		case st.L >= p.k:
			hi = mid - 1
		default:
			lo = mid + 1
		}
	}
}

// probe broadcasts threshold x as the trial filter; nodes whose
// measurement switched regions between the previous threshold and x
// answer with counters (message format identical to validation, §3.2).
// Only a reading between the two thresholds, inclusive, can switch, so
// the holders of that range are the speakers.
func (p *POS) probe(rt *sim.Runtime, x int) protocol.LEG {
	oldThresh := p.filter
	rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
	c := protocol.RunValidation(nil, rt, protocol.ValidationSpec{
		Lb: x, Ub: x + 1,
		// During refinement only the threshold moves, so a node's
		// "previous" region is its current reading classified against
		// the old threshold; regionStandIn maps that onto the new axis.
		Prev: func(n int) int {
			return regionStandIn(rt.Reading(n), oldThresh, x)
		},
		Hints:    p.Hints,
		Speakers: rt.Holders(min(oldThresh, x), max(oldThresh, x)),
	})
	st := p.state.Apply(&c)
	p.filter = x
	p.state = st
	p.cdf[x] = st.L
	p.cdf[x+1] = st.L + st.E
	return st
}

// candidateUpperBound bounds the number of measurements in [lo, hi]
// from the thresholds probed so far: any known cdf at or below lo
// under-counts the exclusions, any known cdf above hi over-counts the
// inclusions. It requires at least one exact side (see direct).
func (p *POS) candidateUpperBound(lo, hi int) (int, bool) {
	below, hasBelow := -1, false
	above, hasAbove := -1, false
	for t, c := range p.cdf {
		if t <= lo && (!hasBelow || c > below) {
			below, hasBelow = c, true
		}
		if t >= hi+1 && (!hasAbove || c < above) {
			above, hasAbove = c, true
		}
	}
	exactLo := p.hasCdf(lo)
	exactHi := p.hasCdf(hi + 1)
	if !hasAbove || (!exactLo && !exactHi) {
		return 0, false
	}
	if !hasBelow {
		below = 0
	}
	return above - below, true
}

func (p *POS) hasCdf(x int) bool {
	_, ok := p.cdf[x]
	return ok
}

// direct retrieves all candidates in [lo, hi], derives the quantile
// exactly, and broadcasts the final filter (required, §3.2).
func (p *POS) direct(rt *sim.Runtime, lo, hi int) (int, error) {
	rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
	p.vals = protocol.CollectValuesIn(p.vals, rt, lo, hi)
	vals := p.vals
	var belowLo int
	if c, ok := p.cdf[lo]; ok {
		belowLo = c
	} else if c, ok := p.cdf[hi+1]; ok {
		belowLo = c - len(vals)
	} else {
		return 0, fmt.Errorf("baseline: POS direct retrieval without an exact bound on [%d,%d]", lo, hi)
	}
	idx := p.k - belowLo - 1
	if idx < 0 || idx >= len(vals) {
		return 0, fmt.Errorf("baseline: POS direct retrieval got %d values in [%d,%d], need index %d", len(vals), lo, hi, idx)
	}
	q := vals[idx]
	p.filter = q
	p.state = protocol.LEG{
		L: belowLo + mathx.CountLess(vals, q),
		E: mathx.CountEqual(vals, q),
	}
	p.state.G = p.n - p.state.L - p.state.E
	rt.SetPhase(sim.PhaseFilter)
	rt.Broadcast(protocol.Request{NBits: protocol.FilterBroadcastBits(rt.Sizes())})
	return q, nil
}

func (p *POS) snapshotPrev(rt *sim.Runtime) {
	for i := range p.prev {
		p.prev[i] = rt.Reading(i)
	}
}

// AdoptShared binds POS to externally managed shared state, enabling
// the §4.2 runtime switching between POS, HBC and IQ without
// reinitializing the network: the three algorithms agree on the filter
// value, the l/e/g counts around it, and the previous readings (prev is
// aliased, not copied, so the owner's snapshots stay visible).
func (p *POS) AdoptShared(k, n, filter int, st protocol.LEG, prev []int) {
	p.k, p.n = k, n
	p.filter = filter
	p.state = st
	p.prev = prev
}

// Shared returns the switchable state: the current filter and the
// counts around it.
func (p *POS) Shared() (filter int, st protocol.LEG) {
	return p.filter, p.state
}

// regionStandIn returns a value whose region relative to the point
// filter at newThresh equals v's region relative to oldThresh.
func regionStandIn(v, oldThresh, newThresh int) int {
	switch protocol.Classify(v, oldThresh, oldThresh+1) {
	case protocol.RegionLess:
		return newThresh - 1
	case protocol.RegionGreater:
		return newThresh + 1
	default:
		return newThresh
	}
}
