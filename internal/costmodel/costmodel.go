// Package costmodel implements the bucket-count cost model of the
// authors' snapshot-query work [21], which HBC reuses (§4.1): choose
// the number of histogram buckets b that minimizes the energy a hotspot
// node spends across the refinement iterations of a b-ary search.
//
// A b-ary search over an integer universe of τ values needs
// ⌈log_b τ⌉ refinement iterations. Per iteration the hotspot pays for
// one refinement request (s_h + s_r bits) and one histogram
// (s_h + b·s_b bits, counting the header once per direction in s_h and
// s_r). The continuous relaxation
//
//	f(b) = (C + b·s_b) / ln b,  C = s_h + s_r
//
// has its minimum where ln b − 1 = C/(s_b·b), i.e. at
//
//	b_exact = exp(1 + W(C/(s_b·e)))
//
// with W the principal Lambert W branch — the closed form the paper
// refers to. BucketCount sharpens this lower-bound estimate with an
// exact discrete search of the true objective around b_exact.
package costmodel

import (
	"fmt"
	"math"

	"wsnq/internal/mathx"
	"wsnq/internal/msg"
)

// Model carries the size parameters of the cost model.
type Model struct {
	HeaderBits     int // s_h: per-message header and footer
	RefinementBits int // s_r: refinement request payload (interval bounds)
	BucketBits     int // s_b: one histogram bucket
}

// FromSizes derives the model from link-layer sizes, with a refinement
// request carrying two interval bounds.
func FromSizes(s msg.Sizes) Model {
	return Model{
		HeaderBits:     s.HeaderBits,
		RefinementBits: 2 * s.BoundBits,
		BucketBits:     s.BucketBits,
	}
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if m.HeaderBits <= 0 || m.RefinementBits <= 0 || m.BucketBits <= 0 {
		return fmt.Errorf("costmodel: all sizes must be positive: %+v", m)
	}
	return nil
}

// bExact returns the continuous-relaxation optimum
// exp(1 + W(C/(s_b·e))), the paper's closed-form estimate b_exact.
func (m Model) bExact() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	c := float64(m.HeaderBits + m.RefinementBits)
	w, err := mathx.LambertW(c / (float64(m.BucketBits) * math.E))
	if err != nil {
		return 0, err
	}
	return math.Exp(1 + w), nil
}

// cost returns the discrete objective: total hotspot bits for a b-ary
// search over a universe of tau values.
func (m Model) cost(b, tau int) float64 {
	if b < 2 || tau < 2 {
		return math.Inf(1)
	}
	iters := math.Ceil(math.Log(float64(tau)) / math.Log(float64(b)))
	perIter := float64(m.HeaderBits+m.RefinementBits) + float64(b*m.BucketBits)
	return iters * perIter
}

// BucketCount returns the optimal integer bucket count for a universe
// of tau values: the discrete minimizer of cost, located by scanning a
// window around the continuous optimum (and always at least 2).
func (m Model) BucketCount(tau int) (int, error) {
	bx, err := m.bExact()
	if err != nil {
		return 0, err
	}
	if tau < 2 {
		return 2, nil
	}
	lo := int(bx/4) + 2
	hi := int(bx*8) + 8
	if hi > tau {
		hi = tau
	}
	if lo < 2 {
		lo = 2
	}
	best, bestCost := lo, math.Inf(1)
	for b := lo; b <= hi; b++ {
		if c := m.cost(b, tau); c < bestCost {
			best, bestCost = b, c
		}
	}
	return best, nil
}
