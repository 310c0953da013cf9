package protocol

import (
	"sync"

	"wsnq/internal/msg"
)

// Request is a broadcast control payload (refinement requests, filter
// updates). Its size is fixed at construction.
type Request struct {
	NBits int
}

// Bits implements sim.Payload.
func (r Request) Bits() int { return r.NBits }

// FilterBroadcastBits is the size of a plain filter update: one value.
func FilterBroadcastBits(s msg.Sizes) int { return s.ValueBits }

// IntervalRequestBits is the size of a refinement request carrying an
// interval: two bounds.
func IntervalRequestBits(s msg.Sizes) int { return 2 * s.BoundBits }

// CountedRequestBits is the size of an IQ refinement request: an
// interval plus the requested count f.
func CountedRequestBits(s msg.Sizes) int { return 2*s.BoundBits + s.CounterBits }

// The convergecast payloads below are recycled through one sync.Pool
// per type: a node takes a reset payload from the pool, and a payload
// goes back as soon as its receiver has merged it (or, at the root,
// once the phase has copied out its result). Slices keep their
// capacity across reuse, so a warmed convergecast allocates nothing.
// Payloads lost in flight or dropped by a crash are left to the
// garbage collector.
var (
	valuesPool    = sync.Pool{New: func() any { return new(Values) }}
	histogramPool = sync.Pool{New: func() any { return new(Histogram) }}
	countersPool  = sync.Pool{New: func() any { return new(Counters) }}
)

// Values is a convergecast payload carrying raw measurements (TAG
// collection, direct retrieval, IQ refinement responses).
type Values struct {
	Vals  []int
	sizes msg.Sizes
}

// getValues returns an empty pooled Values payload.
func getValues(sizes msg.Sizes) *Values {
	v := valuesPool.Get().(*Values)
	v.Vals, v.sizes = v.Vals[:0], sizes
	return v
}

// release returns v to its pool; v must not be used afterwards.
func (v *Values) release() { valuesPool.Put(v) }

// Bits implements sim.Payload.
func (v *Values) Bits() int { return len(v.Vals) * v.sizes.ValueBits }

// ValueCount implements sim.ValueCarrier.
func (v *Values) ValueCount() int { return len(v.Vals) }

// Histogram is a convergecast payload of per-bucket counts, transmitted
// in whichever of the dense or sparse encodings is smaller.
type Histogram struct {
	CellVector
	sizes msg.Sizes
}

// getHistogram returns a pooled Histogram payload of cells zero counts.
func getHistogram(cells int, sizes msg.Sizes) *Histogram {
	h := histogramPool.Get().(*Histogram)
	h.Reset(cells)
	h.sizes = sizes
	return h
}

// release empties h and returns it to its pool; h must not be used
// afterwards.
func (h *Histogram) release() {
	h.Clear()
	histogramPool.Put(h)
}

// Bits implements sim.Payload.
func (h *Histogram) Bits() int {
	return h.sizes.CompressedHistogramBits(h.nonzero, len(h.counts))
}

// Counters is the validation payload: the four movement counters of
// POS, the hints, and (for IQ) the multiset A of attached measurements.
type Counters struct {
	OutOfL, IntoL int
	OutOfG, IntoG int

	// Hints: extremes over the new values of region-changing nodes.
	// HasLo/HasHi report whether any mover contributed.
	HintLo, HintHi int
	HasLo, HasHi   bool

	// Attached is IQ's multiset A (values inside Ξ). Nil otherwise.
	Attached []int

	mode  HintMode
	sizes msg.Sizes
}

// getCounters returns a zeroed pooled Counters payload. It resets the
// fields one by one: assigning a whole Counters would copy the struct,
// msg.Sizes included, on every get.
func getCounters(mode HintMode, sizes msg.Sizes) *Counters {
	c := countersPool.Get().(*Counters)
	c.OutOfL, c.IntoL, c.OutOfG, c.IntoG = 0, 0, 0, 0
	c.HintLo, c.HintHi, c.HasLo, c.HasHi = 0, 0, false, false
	c.Attached = c.Attached[:0]
	c.mode, c.sizes = mode, sizes
	return c
}

// release returns c to its pool; c must not be used afterwards.
func (c *Counters) release() { countersPool.Put(c) }

// Bits implements sim.Payload: four counters, the hint fields of the
// configured mode, and the attached values.
func (c *Counters) Bits() int {
	return 4*c.sizes.CounterBits + c.mode.Bits(c.sizes.ValueBits) + len(c.Attached)*c.sizes.ValueBits
}

// ValueCount implements sim.ValueCarrier.
func (c *Counters) ValueCount() int { return len(c.Attached) }

// merge folds other into c (TAG-style in-network aggregation).
func (c *Counters) merge(other *Counters) {
	c.OutOfL += other.OutOfL
	c.IntoL += other.IntoL
	c.OutOfG += other.OutOfG
	c.IntoG += other.IntoG
	if other.HasLo && (!c.HasLo || other.HintLo < c.HintLo) {
		c.HintLo, c.HasLo = other.HintLo, true
	}
	if other.HasHi && (!c.HasHi || other.HintHi > c.HintHi) {
		c.HintHi, c.HasHi = other.HintHi, true
	}
	c.Attached = append(c.Attached, other.Attached...)
}
