package simtest

import (
	"fmt"
	"math"

	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// FoldRounds is the reference fold of a recorded stream into one series
// point per round: it counts the per-hop events themselves, where
// series.Store.IngestTotals diffs the runtime's cumulative counters.
func FoldRounds(events []trace.Event) []series.Point {
	var (
		pts  []series.Point
		cur  series.Point
		node = map[int]float64{} // cumulative joules by node
		hot  float64
	)
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoundStart:
			cur = series.Point{Round: len(pts), Span: 1}
		case trace.KindRoundEnd:
			cur.HotJoules = hot
			pts = append(pts, cur)
		case trace.KindSend, trace.KindRetry:
			if e.Kind == trace.KindRetry {
				cur.Retries++
			} else if e.Cast != trace.Ack {
				cur.Messages++ // ACK and join frames carry no payload
			}
			cur.Frames += e.Frames
			switch e.Phase {
			case sim.PhaseValidation, sim.PhaseFilter:
				cur.ValidationBits += e.Wire
			case sim.PhaseRefinement:
				cur.RefinementBits += e.Wire
			case sim.PhaseCollect, sim.PhaseInit:
				cur.ShippingBits += e.Wire
			default:
				cur.OtherBits += e.Wire
			}
		case trace.KindEnergy:
			cur.Joules += e.Joules
			node[e.Node] += e.Joules
			hot = max(hot, node[e.Node])
		case trace.KindDecision:
			cur.RankError = max(cur.RankError, e.Err)
		case trace.KindRefine:
			cur.Refines++
		case trace.KindAdapt:
			cur.Adapts++
		case trace.KindDegraded:
			cur.Orphans = max(cur.Orphans, e.Values)
			cur.Deficit = max(cur.Deficit, e.Err)
			cur.Staleness = max(cur.Staleness, e.Aux)
		}
	}
	return pts
}

// Mismatches compares recorded series points with their reference
// fold and returns one line per differing point (plus one for a length
// mismatch): the integer anatomy must agree exactly, the energies up to
// float summation order.
func Mismatches(got, want []series.Point) []string {
	var out []string
	if len(got) != len(want) {
		out = append(out, fmt.Sprintf("%d series points, %d folded rounds", len(got), len(want)))
	}
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if !closeEnough(g.Joules, w.Joules) || !closeEnough(g.HotJoules, w.HotJoules) {
			out = append(out, fmt.Sprintf("round %d energy: series %g/%g, fold %g/%g",
				i, g.Joules, g.HotJoules, w.Joules, w.HotJoules))
		}
		g.Joules, g.HotJoules, w.Joules, w.HotJoules = 0, 0, 0, 0
		if g != w {
			out = append(out, fmt.Sprintf("round %d:\n series %+v\n fold   %+v", i, g, w))
		}
	}
	return out
}

// closeEnough compares energies up to float summation order.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b)+1e-30)
}
