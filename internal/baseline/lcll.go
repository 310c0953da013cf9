package baseline

import (
	"fmt"
	"sort"
	"sync"

	"wsnq/internal/msg"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// LCLL is the histogram algorithm of Liu et al. [16] as configured in
// §5.1.6: a static top-level histogram whose bucket count is set by the
// message size (64 two-byte buckets per 128-byte payload), the improved
// ±1 bucket-delta validation, compressed histograms, and one of two
// refinement strategies — hierarchical refining (recursive zoom,
// logarithmic in the quantile distance) or slip refining (a sliding
// unit-resolution window, linear in the quantile distance but extremely
// selective per step). Around the quantile the bucketing is maintained
// at unit resolution, which is what keeps the reported quantile exact
// between refinements. See DESIGN.md §2 for the reconstruction notes.
type LCLL struct {
	LCLLOptions

	k, n int
	part *Partition
	prev []int

	topBounds []int // static top-level cell boundaries

	// Hierarchical refining: the nested zoom path, outermost first.
	path []spanRange
	// Slip refining: the current expanded window and its covering
	// top-bucket range.
	win    spanRange
	cover  spanRange
	hasWin bool
	// Splice buffers, reused across slides and direct retrievals:
	// counts also takes every histogram tally, vals every retrieval.
	bounds, counts, vals []int
}

// spanRange is a half-open refined region.
type spanRange struct{ Lo, Hi int }

func (s spanRange) contains(lo, hi int) bool { return s.Lo <= lo && hi <= s.Hi }

// LCLLOptions selects the variant and improvements.
type LCLLOptions struct {
	// Slip switches from hierarchical refining (false, LCLL-H) to slip
	// refining (true, LCLL-S).
	Slip bool
	// Buckets is the top-level (and zoom) bucket count; 0 derives it
	// from the message size as in [16] (64 with the default sizes).
	Buckets int
	// WindowWidth is the slip window width in values; 0 derives it from
	// the message size (64 with the default sizes).
	WindowWidth int
	// DirectRetrieval fetches cell values directly once they fit a
	// frame (the [21] improvement applied to LCLL, §5.1.6).
	DirectRetrieval bool
}

// DefaultLCLLOptions returns the §5.1.6 configuration of the given
// variant.
func DefaultLCLLOptions(slip bool) LCLLOptions {
	return LCLLOptions{Slip: slip, DirectRetrieval: true}
}

// NewLCLL returns an LCLL instance with the given options.
func NewLCLL(opts LCLLOptions) *LCLL { return &LCLL{LCLLOptions: opts} }

// Name implements protocol.Algorithm.
func (l *LCLL) Name() string {
	if l.Slip {
		return "LCLL-S"
	}
	return "LCLL-H"
}

// buckets resolves the effective bucket count from the message size.
func (l *LCLL) buckets(s msg.Sizes) int {
	if l.Buckets > 0 {
		return l.Buckets
	}
	b := s.PayloadBits / s.BucketBits
	if b < 2 {
		b = 2
	}
	return b
}

// window resolves the slip window width from the message size.
func (l *LCLL) window(s msg.Sizes) int {
	if l.WindowWidth > 0 {
		return l.WindowWidth
	}
	w := s.PayloadBits / s.BucketBits
	if w < 2 {
		w = 2
	}
	return w
}

// Init implements protocol.Algorithm: disseminate the query, collect
// the top-level histogram from everyone, then refine down to the exact
// quantile with the configured strategy.
func (l *LCLL) Init(rt *sim.Runtime, k int) (int, error) {
	if k < 1 || k > rt.N() {
		return 0, fmt.Errorf("baseline: LCLL rank %d out of [1,%d]", k, rt.N())
	}
	l.k, l.n = k, rt.N()
	rt.SetPhase(sim.PhaseInit)
	lo, hi := rt.Universe()
	part, err := NewPartition(lo, hi+1, l.buckets(rt.Sizes()))
	if err != nil {
		return 0, err
	}
	l.part = part
	l.topBounds = append([]int(nil), part.bounds...)
	l.path, l.hasWin = nil, false

	rt.Broadcast(protocol.Request{NBits: rt.Sizes().CounterBits})
	l.counts = collectCellCounts(l.counts, rt, l.part.bounds)
	copy(l.part.counts, l.counts)

	l.prev = make([]int, l.n)
	l.snapshotPrev(rt)
	return l.refine(rt)
}

// Step implements protocol.Algorithm.
func (l *LCLL) Step(rt *sim.Runtime) (int, error) {
	if l.part == nil {
		return 0, fmt.Errorf("baseline: LCLL not initialized")
	}
	rt.SetPhase(sim.PhaseValidation)
	l.validate(rt)
	l.snapshotPrev(rt)
	rt.SetPhase(sim.PhaseRefinement)
	return l.refine(rt)
}

// validate runs the improved delta validation: a node whose value
// slipped to another cell reports (oldCell, -1) and (newCell, +1);
// deltas aggregate by addition and cancel out in-network.
func (l *LCLL) validate(rt *sim.Runtime) {
	sizes := rt.Sizes()
	part := l.part
	cells := part.Cells()
	// Any sensor may have slipped cells, so the walk lists them all and
	// no node is left out.
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		// The first child's deltas are adopted and forwarded, so a node
		// relaying one subtree takes no payload of its own.
		var d *cellDeltas
		for _, ch := range children {
			child := ch.(*cellDeltas)
			if d == nil {
				d = child
				continue
			}
			d.Merge(&child.CellVector)
			child.release()
		}
		// An unchanged reading cannot have changed cell.
		if prev, cur := l.prev[n], rt.Reading(n); prev != cur {
			oldC, ok1 := part.CellOf(prev)
			newC, ok2 := part.CellOf(cur)
			if ok1 && ok2 && oldC != newC {
				if d == nil {
					d = getCellDeltas(cells, sizes)
				}
				d.Add(oldC, -1)
				d.Add(newC, +1)
			}
		}
		if d == nil {
			return nil
		}
		if d.Nonzero() == 0 {
			d.release()
			return nil
		}
		return d
	})
	for _, p := range atRoot {
		d := p.(*cellDeltas)
		d.Drain(part.AddDelta)
		d.release()
	}
}

// refine drives the partition until the rank-owning cell has unit
// width, then reports its value.
func (l *LCLL) refine(rt *sim.Runtime) (int, error) {
	if l.Slip {
		return l.refineSlip(rt)
	}
	return l.refineHierarchical(rt)
}

// --- hierarchical refining (LCLL-H) ---

func (l *LCLL) refineHierarchical(rt *sim.Runtime) (int, error) {
	// Zoom out: drop path levels that no longer contain the rank
	// position; one batched broadcast announces the pops.
	idx, below, err := l.part.OwningCell(l.k)
	if err != nil {
		return 0, err
	}
	popped := false
	for len(l.path) > 0 {
		deepest := l.path[len(l.path)-1]
		cLo, cHi := l.part.Bounds(idx)
		if deepest.contains(cLo, cHi) {
			break
		}
		if err := l.mergeSpanToCells(deepest); err != nil {
			return 0, err
		}
		l.path = l.path[:len(l.path)-1]
		popped = true
		if idx, below, err = l.part.OwningCell(l.k); err != nil {
			return 0, err
		}
	}
	if popped {
		rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
	}

	// Zoom in until the owning cell has unit width.
	b := l.buckets(rt.Sizes())
	perFrame := rt.Sizes().ValuesPerFrame()
	for iter := 0; ; iter++ {
		if iter > 64 {
			return 0, fmt.Errorf("baseline: LCLL-H zoom did not converge (round %d)", rt.Round())
		}
		cLo, cHi := l.part.Bounds(idx)
		if cHi-cLo == 1 {
			return cLo, nil
		}
		if l.DirectRetrieval && l.part.Count(idx) <= perFrame {
			q, err := l.directCell(rt, cLo, cHi, below)
			if err != nil {
				return 0, err
			}
			l.path = append(l.path, spanRange{cLo, cHi})
			return q, nil
		}
		nb := EqualBounds(cLo, cHi, b)
		rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
		l.counts = collectCellCounts(l.counts, rt, nb)
		if err := l.part.Replace(cLo, cHi, nb, l.counts); err != nil {
			return 0, err
		}
		l.path = append(l.path, spanRange{cLo, cHi})
		if idx, below, err = l.part.OwningCell(l.k); err != nil {
			return 0, err
		}
	}
}

// mergeSpanToCells collapses a refined span back into the single parent
// cell it subdivided (communication-free at the root; nodes learn it
// from the batched zoom-out broadcast).
func (l *LCLL) mergeSpanToCells(s spanRange) error {
	return l.part.Merge(s.Lo, s.Hi)
}

// directCell fetches all values of the cell [cLo, cHi) and splices the
// quantile out as a unit cell (with exact remainder counts), keeping
// the partition exact without expanding the whole cell.
func (l *LCLL) directCell(rt *sim.Runtime, cLo, cHi, below int) (int, error) {
	rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
	l.vals = protocol.CollectValuesIn(l.vals, rt, cLo, cHi-1)
	vals := l.vals
	localRank := l.k - below
	if localRank < 1 || localRank > len(vals) {
		return 0, fmt.Errorf("baseline: LCLL direct retrieval rank %d of %d values in [%d,%d)", localRank, len(vals), cLo, cHi)
	}
	q := vals[localRank-1]
	// Splice [cLo,q) | [q,q+1) | [q+1,cHi) with exact counts.
	bounds := append(l.bounds[:0], cLo)
	if q > cLo {
		bounds = append(bounds, q)
	}
	bounds = append(bounds, q+1)
	if q+1 < cHi {
		bounds = append(bounds, cHi)
	}
	counts := append(l.counts[:0], make([]int, len(bounds)-1)...)
	for _, v := range vals {
		for i := 0; i+1 < len(bounds); i++ {
			if v >= bounds[i] && v < bounds[i+1] {
				counts[i]++
				break
			}
		}
	}
	l.bounds, l.counts = bounds, counts
	if err := l.part.Replace(cLo, cHi, bounds, counts); err != nil {
		return 0, err
	}
	return q, nil
}

// --- slip refining (LCLL-S) ---

func (l *LCLL) refineSlip(rt *sim.Runtime) (int, error) {
	w := l.window(rt.Sizes())
	uniLo := l.part.Lo()
	uniHi := l.part.Hi()
	maxSlides := (uniHi-uniLo)/w + 64
	for iter := 0; ; iter++ {
		if iter > maxSlides {
			return 0, fmt.Errorf("baseline: LCLL-S did not converge after %d slides (round %d)", iter, rt.Round())
		}
		idx, below, err := l.part.OwningCell(l.k)
		if err != nil {
			return 0, err
		}
		cLo, cHi := l.part.Bounds(idx)
		if cHi-cLo == 1 {
			return cLo, nil
		}
		// Slide the window one step toward the owning cell.
		var wLo int
		switch {
		case l.hasWin && cLo >= l.win.Hi:
			wLo = l.win.Hi
		case l.hasWin && cHi <= l.win.Lo:
			wLo = l.win.Lo - w
		default:
			// No window yet (or it was collapsed): enter the owning
			// cell from the side closer to the local rank.
			if (l.k-below)*2 <= l.part.Count(idx) {
				wLo = cLo
			} else {
				wLo = cHi - w
			}
		}
		if wLo < uniLo {
			wLo = uniLo
		}
		if wLo+w > uniHi {
			wLo = uniHi - w
		}
		if err := l.slideTo(rt, spanRange{wLo, wLo + w}); err != nil {
			return 0, err
		}
	}
}

// slideTo collapses the previous window back to top-level buckets and
// expands the new one to unit cells (plus the boundary remainder cells
// of the covering top buckets), with one broadcast and one selective
// histogram convergecast.
func (l *LCLL) slideTo(rt *sim.Runtime, win spanRange) error {
	if l.hasWin {
		if err := l.collapseCover(); err != nil {
			return err
		}
		l.hasWin = false
	}
	cover := l.coveringTopRange(win)
	bounds := append(l.bounds[:0], cover.Lo)
	for x := win.Lo; x <= win.Hi; x++ {
		if x > cover.Lo && x < cover.Hi {
			bounds = append(bounds, x)
		}
	}
	if bounds[len(bounds)-1] != cover.Hi {
		bounds = append(bounds, cover.Hi)
	}
	l.bounds = bounds
	rt.Broadcast(protocol.Request{NBits: protocol.IntervalRequestBits(rt.Sizes())})
	l.counts = collectCellCounts(l.counts, rt, bounds)
	if err := l.part.Replace(cover.Lo, cover.Hi, bounds, l.counts); err != nil {
		return err
	}
	l.win, l.cover, l.hasWin = win, cover, true
	return nil
}

// collapseCover restores the covering top buckets of the current window
// to their top-level granularity, summing counts at the root.
func (l *LCLL) collapseCover() error {
	for i := 0; i+1 < len(l.topBounds); i++ {
		bLo, bHi := l.topBounds[i], l.topBounds[i+1]
		if bHi <= l.cover.Lo || bLo >= l.cover.Hi {
			continue
		}
		if err := l.part.Merge(bLo, bHi); err != nil {
			return err
		}
	}
	return nil
}

// coveringTopRange returns the union of top-level buckets overlapping
// the window.
func (l *LCLL) coveringTopRange(win spanRange) spanRange {
	lo := l.topBounds[0]
	hi := l.topBounds[len(l.topBounds)-1]
	for i := 0; i+1 < len(l.topBounds); i++ {
		if l.topBounds[i] <= win.Lo && win.Lo < l.topBounds[i+1] {
			lo = l.topBounds[i]
		}
		if l.topBounds[i] < win.Hi && win.Hi <= l.topBounds[i+1] {
			hi = l.topBounds[i+1]
		}
	}
	return spanRange{lo, hi}
}

func (l *LCLL) snapshotPrev(rt *sim.Runtime) {
	for i := range l.prev {
		l.prev[i] = rt.Reading(i)
	}
}

// --- payloads ---

// cellDeltas is the validation payload: per-cell count deltas. Like the
// protocol package's payloads it is recycled through a pool: a child
// goes back once merged, the root's once applied, and a released one is
// all-zero.
type cellDeltas struct {
	protocol.CellVector
	sizes msg.Sizes
}

var cellDeltasPool = sync.Pool{New: func() any { return new(cellDeltas) }}

// getCellDeltas returns an empty pooled cellDeltas payload over cells
// cells.
func getCellDeltas(cells int, s msg.Sizes) *cellDeltas {
	d := cellDeltasPool.Get().(*cellDeltas)
	d.Reset(cells)
	d.sizes = s
	return d
}

// release empties d and returns it to its pool; d must not be used
// afterwards.
func (d *cellDeltas) release() {
	d.Clear()
	cellDeltasPool.Put(d)
}

// Bits implements sim.Payload: one (index, signed count) pair per
// non-canceled cell.
func (d *cellDeltas) Bits() int {
	return d.Nonzero() * 2 * d.sizes.CounterBits
}

// collectCellCounts gathers the exact per-cell counts for the cell list
// given by bounds into dst[:0]: only nodes with a measurement inside
// [bounds[0], bounds[last]) respond, and histograms aggregate by
// addition and travel compressed.
func collectCellCounts(dst []int, rt *sim.Runtime, bounds []int) []int {
	lo, hi := bounds[0], bounds[len(bounds)-1]
	return protocol.CollectCounts(dst, rt, lo, hi-1, len(bounds)-1, func(v int) (int, bool) {
		if v < lo || v >= hi {
			return 0, false
		}
		return sort.SearchInts(bounds, v+1) - 1, true
	})
}
