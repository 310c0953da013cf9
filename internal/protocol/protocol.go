// Package protocol contains the machinery shared by every quantile
// algorithm in the paper: the root-driven Algorithm interface, the
// threshold-interval bookkeeping (the l/e/g state of POS §3.2), the
// validation convergecast with hint computation, TAG-style value
// collection, histogram convergecasts, truncated order-statistic
// convergecasts (IQ refinement responses), and the snapshot b-ary
// search of [21] used for initialization.
//
// Every collection primitive (RunValidation's attached multiset,
// GatherValues and the Collect functions) writes the root's result over
// a caller-owned dst and returns dst[:0] refilled, the way
// strconv.AppendInt appends to its dst; dst may be nil. No primitive
// retains dst or keeps a result in scratch of its own, so a caller
// that passes the same buffer to two calls sees in its own code that
// the second result overwrites the first.
package protocol

import (
	"fmt"

	"wsnq/internal/sim"
)

// Algorithm is one continuous quantile protocol. Implementations are
// stateful: Init binds them to a runtime and runs the initialization
// round (t = 0); Step runs one update round after the runtime has
// advanced. Both return the exact rank-k value for the current round.
type Algorithm interface {
	// Name returns the display name used in tables (e.g. "IQ").
	Name() string
	// Init runs the initialization round for rank k at the runtime's
	// current round and returns the first quantile.
	Init(rt *sim.Runtime, k int) (int, error)
	// Step runs one continuous update round and returns the quantile.
	Step(rt *sim.Runtime) (int, error)
}

// Region classifies a measurement against the filter interval
// [Lb, Ub): less-than, equal (inside), or greater.
type Region int8

// The three filter regions of POS and its descendants.
const (
	RegionLess Region = iota - 1
	RegionEqual
	RegionGreater
)

func (r Region) String() string {
	switch r {
	case RegionLess:
		return "lt"
	case RegionEqual:
		return "eq"
	case RegionGreater:
		return "gt"
	default:
		return fmt.Sprintf("Region(%d)", int8(r))
	}
}

// Classify returns the region of v relative to the interval [lb, ub).
// A point filter at value f is the interval [f, f+1).
func Classify(v, lb, ub int) Region {
	switch {
	case v < lb:
		return RegionLess
	case v >= ub:
		return RegionGreater
	default:
		return RegionEqual
	}
}

// LEG is the root's count state: how many measurements are less than,
// inside, and greater than the filter interval.
type LEG struct {
	L, E, G int
}

// N returns the total count.
func (s LEG) N() int { return s.L + s.E + s.G }

// Valid reports whether the rank-k value still lies in the equal
// region: l < k ≤ l + e.
func (s LEG) Valid(k int) bool { return s.L < k && s.L+s.E >= k }

// Direction reports where rank k lies relative to the filter interval:
// RegionLess if the quantile dropped below it, RegionGreater if it rose
// above, RegionEqual if it is still inside.
func (s LEG) Direction(k int) Region {
	switch {
	case s.L >= k:
		return RegionLess
	case s.L+s.E < k:
		return RegionGreater
	default:
		return RegionEqual
	}
}

// HintMode selects how refinement hints are encoded in validation
// messages (§5.1.6).
type HintMode int

const (
	// HintNone omits hints entirely.
	HintNone HintMode = iota
	// HintTwoValues transmits the minimum and maximum of the values
	// that changed their region (POS's configuration: two values).
	HintTwoValues
	// HintMaxDistance transmits only the maximum absolute distance of
	// changed values from the old filter (HBC's and IQ's configuration:
	// one value, a looser but cheaper bound).
	HintMaxDistance
)

// Bits returns the hint field width in the validation message given
// the per-value width.
func (m HintMode) Bits(valueBits int) int {
	switch m {
	case HintTwoValues:
		return 2 * valueBits
	case HintMaxDistance:
		return valueBits
	default:
		return 0
	}
}
