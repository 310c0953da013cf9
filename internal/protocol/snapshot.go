package protocol

import (
	"fmt"

	"wsnq/internal/mathx"
	"wsnq/internal/sim"
)

// SnapshotResult is the outcome of a snapshot quantile query: the exact
// rank-k value and the exact count state around the point filter
// [Value, Value+1), ready to seed a continuous algorithm.
type SnapshotResult struct {
	Value int
	State LEG
}

// SnapshotQuantile runs the b-ary histogram search of [21] over the
// current round's measurements: the root repeatedly broadcasts a
// refinement interval that nodes histogram into b buckets, descending
// into the rank-owning bucket until it has unit width, switching to
// direct value retrieval as soon as the remaining candidates fit into a
// single frame. It is HBC's initialization and also a complete snapshot
// algorithm in its own right.
func SnapshotQuantile(rt *sim.Runtime, k, b int) (SnapshotResult, error) {
	n := rt.N()
	if k < 1 || k > n {
		return SnapshotResult{}, fmt.Errorf("protocol: rank %d out of [1,%d]", k, n)
	}
	if b < 2 {
		return SnapshotResult{}, fmt.Errorf("protocol: bucket count %d must be >= 2", b)
	}
	lo, hi := rt.Universe()
	clo, chi := lo, hi+1 // current half-open candidate interval
	base := 0            // exact number of measurements below clo
	inside := n          // exact number of measurements in [clo, chi)
	perFrame := rt.Sizes().ValuesPerFrame()

	for iter := 0; ; iter++ {
		if iter > 64 {
			return SnapshotResult{}, fmt.Errorf("protocol: snapshot search did not converge in [%d,%d)", clo, chi)
		}
		// Direct retrieval once the candidates fit one frame (the
		// "nearly empty interval" improvement of [21]).
		if inside <= perFrame {
			rt.Broadcast(Request{NBits: IntervalRequestBits(rt.Sizes())})
			vals := CollectValuesIn(rt, clo, chi-1)
			if len(vals) != inside {
				// Under an attached fault plan, a shortfall covered by
				// the round's coverage deficit degrades the answer
				// instead of failing the query (DESIGN.md §4f); any
				// other mismatch is a genuine desynchronization.
				if short := inside - len(vals); short < 0 || short > rt.CoverageDeficit() {
					return SnapshotResult{}, fmt.Errorf("protocol: expected %d candidates in [%d,%d), got %d", inside, clo, chi, len(vals))
				}
				if len(vals) == 0 {
					// Every candidate holder is unreachable; the
					// interval's lower bound is the best degraded answer.
					return SnapshotResult{Value: clo, State: legAround(clo, base, inside, n)}, nil
				}
			}
			idx := clampIndex(k-base-1, len(vals))
			q := vals[idx]
			return SnapshotResult{
				Value: q,
				State: legAround(q, base+mathx.CountLess(vals, q), mathx.CountEqual(vals, q), n),
			}, nil
		}
		bu, err := NewBuckets(clo, chi, b)
		if err != nil {
			return SnapshotResult{}, err
		}
		rt.Broadcast(Request{NBits: IntervalRequestBits(rt.Sizes())})
		counts := CollectHistogram(rt, bu)
		kk := k - base
		if deficit := rt.CoverageDeficit(); deficit > 0 {
			total := 0
			for _, c := range counts {
				total += c
			}
			if total == 0 {
				// The whole interval went silent: answer its lower bound.
				return SnapshotResult{Value: clo, State: legAround(clo, base, inside, n)}, nil
			}
			if kk > total {
				kk = total
			}
		}
		idx, before, err := OwningBucket(counts, kk)
		if err != nil {
			return SnapshotResult{}, fmt.Errorf("protocol: snapshot search in [%d,%d): %w", clo, chi, err)
		}
		clo, chi = bu.Bounds(idx)
		base += before
		inside = counts[idx]
		if chi-clo == 1 {
			return SnapshotResult{
				Value: clo,
				State: legAround(clo, base, inside, n),
			}, nil
		}
	}
}

// clampIndex clamps a rank-derived slice index into [0, n).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// legAround assembles an exact LEG for a point filter at value q given
// the exact below-count and equal-count.
func legAround(_ int, below, equal, n int) LEG {
	return LEG{L: below, E: equal, G: n - below - equal}
}

// OwningBucket locates the bucket containing local rank k (1-based
// within the histogram) and returns its index plus the number of
// measurements in the buckets before it.
func OwningBucket(counts []int, k int) (idx, before int, err error) {
	cum := 0
	for i, c := range counts {
		if cum+c >= k && k > cum {
			return i, cum, nil
		}
		cum += c
	}
	return 0, 0, fmt.Errorf("rank %d not covered by histogram total %d", k, cum)
}

// SnapshotFull is the TAG-style initialization of POS and IQ (§3.2,
// §4.2.1): every measurement is forwarded to the root, which computes
// the exact rank-k value, the exact count state, and returns the full
// ascending value list for further seeding (IQ's Ξ initialization).
func SnapshotFull(rt *sim.Runtime, k int) (SnapshotResult, []int, error) {
	n := rt.N()
	if k < 1 || k > n {
		return SnapshotResult{}, nil, fmt.Errorf("protocol: rank %d out of [1,%d]", k, n)
	}
	vals := CollectSmallestK(rt, n)
	if len(vals) != n {
		// A shortfall covered by the runtime's coverage deficit (crashed
		// or orphaned subtrees under an attached fault plan) degrades
		// the snapshot; anything else is a protocol failure.
		if short := n - len(vals); short > rt.CoverageDeficit() {
			return SnapshotResult{}, nil, fmt.Errorf("protocol: initialization collected %d of %d values", len(vals), n)
		}
		if len(vals) == 0 {
			return SnapshotResult{}, nil, fmt.Errorf("protocol: initialization reached no sensors")
		}
	}
	q := vals[clampIndex(k-1, len(vals))]
	res := SnapshotResult{
		Value: q,
		State: legAround(q, mathx.CountLess(vals, q), mathx.CountEqual(vals, q), n),
	}
	return res, vals, nil
}
