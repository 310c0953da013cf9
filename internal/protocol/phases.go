package protocol

import (
	"sort"

	"wsnq/internal/sim"
)

// HintBoundsAround interprets the hint fields relative to the old
// filter position, honoring the encoding mode: in HintTwoValues mode
// the exact extremes are available; in HintMaxDistance mode only a
// symmetric distance around center is known, which widens the bound
// but costs one value field less on the air (§5.1.6).
func (c *Counters) HintBoundsAround(center int) (lo, hi int, hasLo, hasHi bool) {
	switch c.mode {
	case HintTwoValues:
		return c.HintLo, c.HintHi, c.HasLo, c.HasHi
	case HintMaxDistance:
		if !c.HasLo && !c.HasHi {
			return 0, 0, false, false
		}
		d := 0
		if c.HasLo && center-c.HintLo > d {
			d = center - c.HintLo
		}
		if c.HasHi && c.HintHi-center > d {
			d = c.HintHi - center
		}
		return center - d, center + d, true, true
	default:
		return 0, 0, false, false
	}
}

// ValidationSpec configures the validation convergecast at the start of
// an update round. All nodes share the filter interval [Lb, Ub).
type ValidationSpec struct {
	Lb, Ub int // shared filter interval, point filters are [v, v+1)

	// Prev returns the node's previous-round measurement (node state).
	Prev func(node int) int

	// Hints selects the hint encoding.
	Hints HintMode

	// Attach, if non-nil, reports whether a node must ship its current
	// measurement in the multiset A (IQ's Ξ test).
	Attach func(node, value int) bool

	// Speakers lists the sensors that may have changed region (see
	// sim.Runtime.Convergecast); every other sensor must keep its
	// region and match no Attach. nil lists every sensor.
	Speakers []int
}

// RunValidation executes one validation convergecast: every node whose
// measurement changed its filter region contributes movement counters
// and hints; nodes matched by Attach additionally ship their values;
// intermediate nodes aggregate; nodes with nothing to report stay
// silent. The merged root view is returned (zero-valued if the whole
// network stayed silent); its Attached multiset is dst[:0] refilled,
// sorted ascending.
func RunValidation(dst []int, rt *sim.Runtime, spec ValidationSpec) Counters {
	sizes := rt.Sizes()
	speakers := spec.Speakers
	if speakers == nil {
		// Every sensor may have moved, so the walk lists them all and
		// no node is left out.
		speakers = rt.Topology().PostOrder
	}
	// A sensor left out keeps its region and attaches nothing, so with
	// no children's payloads the merge below returns nil for it.
	atRoot := rt.Convergecast(speakers, func(n int, children []sim.Payload) sim.Payload {
		// The first child's counters are adopted and forwarded, so a
		// node relaying one subtree takes no payload of its own. The
		// merge is order-free apart from Attached, which the root sorts.
		var c *Counters
		for _, ch := range children {
			child := ch.(*Counters)
			if c == nil {
				c = child
				continue
			}
			c.merge(child)
			child.release()
		}
		cur := rt.Reading(n)
		oldR := Classify(spec.Prev(n), spec.Lb, spec.Ub)
		newR := Classify(cur, spec.Lb, spec.Ub)
		attach := spec.Attach != nil && spec.Attach(n, cur)
		if oldR == newR && !attach {
			// A child's payload is never empty, so c is nil or has news.
			if c == nil {
				return nil
			}
			return c
		}
		if c == nil {
			c = getCounters(spec.Hints, sizes)
		}
		if oldR != newR {
			switch oldR {
			case RegionLess:
				c.OutOfL++
			case RegionGreater:
				c.OutOfG++
			}
			switch newR {
			case RegionLess:
				c.IntoL++
				if !c.HasLo || cur < c.HintLo {
					c.HintLo, c.HasLo = cur, true
				}
			case RegionGreater:
				c.IntoG++
				if !c.HasHi || cur > c.HintHi {
					c.HintHi, c.HasHi = cur, true
				}
			}
		}
		if attach {
			c.Attached = append(c.Attached, cur)
		}
		return c
	})
	root := Counters{Attached: dst[:0], mode: spec.Hints, sizes: sizes}
	for _, p := range atRoot {
		c := p.(*Counters)
		root.merge(c)
		c.release()
	}
	sort.Ints(root.Attached)
	return root
}

// Apply updates the root's count state with the movement counters.
func (s LEG) Apply(c *Counters) LEG {
	l := s.L - c.OutOfL + c.IntoL
	g := s.G - c.OutOfG + c.IntoG
	return LEG{L: l, E: s.N() - l - g, G: g}
}

// GatherValues runs a raw-value convergecast over the speakers' root
// paths (see sim.Runtime.Convergecast): node n contributes its
// measurement v when keep(n, v) holds and appends its children's
// values, then trim (if non-nil) cuts the list before it is forwarded;
// nodes left with no values stay silent. speakers must list every node
// keep accepts: the sensors holding a requested range (Holders), or
// Topology().PostOrder when keep is per node. The values that reach
// the root are returned as dst[:0] refilled, concatenated and
// untrimmed (empty when none arrive), in no particular order: every
// caller sorts or trims them.
func GatherValues(dst []int, rt *sim.Runtime, speakers []int, keep func(node, v int) bool, trim func([]int) []int) []int {
	sizes := rt.Sizes()
	// A node outside speakers has no children's values and keep
	// rejects its own, so it would return nil: skipping it is silent.
	atRoot := rt.Convergecast(speakers, func(n int, children []sim.Payload) sim.Payload {
		// The first child's values are adopted and forwarded, so a node
		// relaying one subtree takes no payload of its own.
		var v *Values
		for _, ch := range children {
			child := ch.(*Values)
			if v == nil {
				v = child
				continue
			}
			v.Vals = append(v.Vals, child.Vals...)
			child.release()
		}
		if r := rt.Reading(n); keep(n, r) {
			if v == nil {
				v = getValues(sizes)
			}
			v.Vals = append(v.Vals, r)
		}
		if v == nil {
			return nil
		}
		if trim != nil {
			v.Vals = trim(v.Vals)
		}
		if len(v.Vals) == 0 {
			v.release()
			return nil
		}
		return v
	})
	total := 0
	for _, p := range atRoot {
		total += len(p.(*Values).Vals)
	}
	all := grown(dst, total)
	for _, p := range atRoot {
		v := p.(*Values)
		all = append(all, v.Vals...)
		v.release()
	}
	return all
}

// grown returns dst[:0] with room for n values, reallocated to exactly
// n when dst is shorter: a result buffer lives as long as its
// algorithm, so the slack of append's doubling would stay live with it.
func grown(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, 0, n)
	}
	return dst[:0]
}

// CollectSmallestK is the TAG-style collection: every node merges its
// measurement with its children's lists and forwards the k smallest.
// The result, dst[:0] refilled, holds the (up to k) smallest
// measurements that reached the root, ascending. Under loss, fewer or
// other values may arrive; loss-free it is exact.
func CollectSmallestK(dst []int, rt *sim.Runtime, k int) []int {
	smallest := func(vals []int) []int {
		sort.Ints(vals)
		return vals[:min(len(vals), k)]
	}
	return smallest(GatherValues(dst, rt, rt.Topology().PostOrder, func(int, int) bool { return true }, smallest))
}

// CollectValuesIn performs a direct-retrieval convergecast: every node
// with a measurement in the closed interval [lo, hi] ships it, and only
// those holders and their root paths are walked; values are
// concatenated unmodified. The result, dst[:0] refilled, arrives
// sorted ascending.
func CollectValuesIn(dst []int, rt *sim.Runtime, lo, hi int) []int {
	rt.TraceRefine(lo, hi, -1)
	all := GatherValues(dst, rt, rt.Holders(lo, hi), func(_, v int) bool { return v >= lo && v <= hi }, nil)
	sort.Ints(all)
	return all
}

// CollectExtreme is IQ's refinement response: nodes with a measurement
// in the closed interval [lo, hi] contribute it (only they and their
// root paths are walked), and every aggregating node truncates to the
// f largest (largest = true) or f smallest values, always keeping
// values tied with the f-th so the root can resolve duplicates
// exactly. The result, dst[:0] refilled, arrives sorted ascending.
func CollectExtreme(dst []int, rt *sim.Runtime, lo, hi, f int, largest bool) []int {
	if f < 0 {
		f = 0
	}
	rt.TraceRefine(lo, hi, f)
	trim := func(vals []int) []int { return truncateExtreme(vals, f, largest) }
	return trim(GatherValues(dst, rt, rt.Holders(lo, hi), func(_, v int) bool { return v >= lo && v <= hi }, trim))
}

// truncateExtreme keeps the f largest (or smallest) elements plus any
// boundary ties, returning them sorted ascending in vals' own storage
// (nil when f is 0).
func truncateExtreme(vals []int, f int, largest bool) []int {
	sort.Ints(vals)
	if len(vals) <= f {
		return vals
	}
	if f == 0 {
		return nil
	}
	if largest {
		boundary := vals[len(vals)-f] // f-th largest
		i := sort.SearchInts(vals, boundary)
		return vals[:copy(vals, vals[i:])]
	}
	boundary := vals[f-1] // f-th smallest
	i := sort.SearchInts(vals, boundary+1)
	return vals[:i]
}

// CollectHistogram gathers the bucket histogram of all measurements in
// bu's range: each node inside sorts itself into a bucket, histograms
// aggregate by vector addition, and only non-empty subtrees transmit.
// The bucket counts are returned as dst[:0] refilled.
func CollectHistogram(dst []int, rt *sim.Runtime, bu Buckets) []int {
	rt.TraceRefine(bu.Lo, bu.Hi-1, bu.Effective())
	return CollectCounts(dst, rt, bu.Lo, bu.Hi-1, bu.Effective(), bu.Index)
}

// CollectCounts gathers per-cell counts over cells cells of the closed
// value range [lo, hi]: only the sensors holding a reading in it
// (Holders) and their root paths take part. A node whose measurement v
// has cellOf(v) = (i, true) counts itself into cell i, histograms
// aggregate by vector addition and travel compressed, and only
// non-empty subtrees transmit. cellOf must reject every v outside
// [lo, hi]. The root's totals are returned as dst[:0] refilled.
func CollectCounts(dst []int, rt *sim.Runtime, lo, hi, cells int, cellOf func(v int) (int, bool)) []int {
	sizes := rt.Sizes()
	// A node outside Holders has no children's histograms and cellOf
	// rejects its reading, so it would return nil: skipping it is
	// silent.
	atRoot := rt.Convergecast(rt.Holders(lo, hi), func(n int, children []sim.Payload) sim.Payload {
		// The first child's histogram is adopted and forwarded, so a
		// node relaying one subtree takes no payload of its own.
		var h *Histogram
		for _, ch := range children {
			child := ch.(*Histogram)
			if h == nil {
				h = child
				continue
			}
			h.Merge(&child.CellVector)
			child.release()
		}
		if i, ok := cellOf(rt.Reading(n)); ok {
			if h == nil {
				h = getHistogram(cells, sizes)
			}
			h.Add(i, 1)
		}
		if h == nil {
			return nil
		}
		return h
	})
	total := append(grown(dst, cells), make([]int, cells)...)
	for _, p := range atRoot {
		h := p.(*Histogram)
		h.Drain(func(cell, c int) { total[cell] += c })
		h.release()
	}
	return total
}
