// Package qdigest implements the q-digest quantile summary of
// Shrivastava et al. ("Medians and Beyond", SenSys 2004), the canonical
// representative of the *approximate* algorithm class the paper's
// related-work section (§3.1) contrasts against: instead of refining
// toward the exact quantile, every node compresses its subtree's value
// distribution into a bounded-size digest that is merged up the tree,
// and the root answers any φ-quantile with rank error at most
// n·log(σ)/k, where σ is the universe size and k the compression
// parameter.
//
// The extension study in this repository (figure id "ext-approx") uses
// it to quantify what the paper's exactness guarantee costs relative to
// a bounded-error summary.
package qdigest

import (
	"fmt"
	"math/bits"
	"sort"
)

// Digest is a q-digest over the value universe [0, 1<<height).
// Buckets are the nodes of a conceptual complete binary tree over the
// universe, identified by heap numbering (root 1; children 2i, 2i+1;
// leaves at depth height).
type Digest struct {
	height uint             // universe is [0, 1<<height)
	k      int              // compression parameter
	counts map[uint64]int64 // bucket id -> count
	n      int64            // total weight
}

// New creates an empty digest for a universe of size at least
// universeSize with compression parameter k >= 1.
func New(universeSize int, k int) (*Digest, error) {
	if universeSize < 2 {
		return nil, fmt.Errorf("qdigest: universe size %d too small", universeSize)
	}
	if k < 1 {
		return nil, fmt.Errorf("qdigest: compression parameter %d must be >= 1", k)
	}
	h := uint(bits.Len(uint(universeSize - 1)))
	return &Digest{height: h, k: k, counts: make(map[uint64]int64)}, nil
}

// universeSize returns the padded power-of-two universe size.
func (d *Digest) universeSize() int { return 1 << d.height }

// N returns the total inserted weight.
func (d *Digest) N() int64 { return d.n }

// Buckets returns the number of stored buckets (the digest's size).
func (d *Digest) Buckets() int { return len(d.counts) }

// leafID returns the tree id of the leaf bucket for value v.
func (d *Digest) leafID(v int) uint64 {
	return (uint64(1) << d.height) + uint64(v)
}

// Add inserts value v (0 <= v < universeSize) with the given weight.
func (d *Digest) Add(v int, weight int64) error {
	if v < 0 || v >= d.universeSize() {
		return fmt.Errorf("qdigest: value %d outside universe [0,%d)", v, d.universeSize())
	}
	if weight <= 0 {
		return fmt.Errorf("qdigest: weight %d must be positive", weight)
	}
	d.counts[d.leafID(v)] += weight
	d.n += weight
	return nil
}

// Merge folds other into d. Both must share the universe and k.
func (d *Digest) Merge(other *Digest) error {
	if other.height != d.height || other.k != d.k {
		return fmt.Errorf("qdigest: incompatible digests (h=%d/%d k=%d/%d)", d.height, other.height, d.k, other.k)
	}
	for id, c := range other.counts {
		d.counts[id] += c
	}
	d.n += other.n
	return nil
}

// Compress re-establishes the q-digest invariant, bounding the bucket
// count to O(k·log σ): any node whose subtree weight (itself plus
// sibling plus parent) is at most ⌊n/k⌋ is folded into its parent.
func (d *Digest) Compress() {
	if d.n == 0 {
		return
	}
	threshold := d.n / int64(d.k)
	if threshold == 0 {
		return
	}
	// Level-by-level bottom-up sweep: folds at one level create parent
	// entries that the next (shallower) level's pass then considers, so
	// light subtrees cascade all the way up.
	for depth := d.height; depth > 0; depth-- {
		levelLo := uint64(1) << depth
		levelHi := levelLo << 1
		ids := make([]uint64, 0)
		for id := range d.counts {
			if id >= levelLo && id < levelHi {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
		for _, id := range ids {
			c, ok := d.counts[id]
			if !ok {
				continue // already folded together with its sibling
			}
			sib := id ^ 1
			parent := id >> 1
			total := c + d.counts[sib] + d.counts[parent]
			if total <= threshold {
				d.counts[parent] = total
				delete(d.counts, id)
				delete(d.counts, sib)
			}
		}
	}
}

// Quantile returns an approximate rank-kth value (1-based): the
// smallest value whose estimated rank reaches kth. The true rank of the
// answer is within n·log(σ)/k of kth.
func (d *Digest) Quantile(kth int64) (int, error) {
	if d.n == 0 {
		return 0, fmt.Errorf("qdigest: empty digest")
	}
	if kth < 1 {
		kth = 1
	}
	if kth > d.n {
		kth = d.n
	}
	// Post-order traversal of stored buckets ordered by their interval
	// upper bound (then size), accumulating counts until kth is reached.
	type entry struct {
		hi, lo uint64 // value interval [lo, hi]
		c      int64
	}
	entries := make([]entry, 0, len(d.counts))
	for id, c := range d.counts {
		lo, hi := d.bounds(id)
		entries = append(entries, entry{hi: hi, lo: lo, c: c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].hi != entries[j].hi {
			return entries[i].hi < entries[j].hi
		}
		return entries[i].lo > entries[j].lo // smaller interval first
	})
	var cum int64
	for _, e := range entries {
		cum += e.c
		if cum >= kth {
			return int(e.hi), nil
		}
	}
	last := entries[len(entries)-1]
	return int(last.hi), nil
}

// bounds returns the value interval [lo, hi] covered by bucket id.
func (d *Digest) bounds(id uint64) (lo, hi uint64) {
	depth := uint(bits.Len64(id)) - 1
	span := d.height - depth
	lo = (id - (uint64(1) << depth)) << span
	hi = lo + (uint64(1) << span) - 1
	return lo, hi
}

// SizeBits returns the encoded size of the digest: one (id, count) pair
// per bucket with the given field widths.
func (d *Digest) SizeBits(idBits, countBits int) int {
	return len(d.counts) * (idBits + countBits)
}
