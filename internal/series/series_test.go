package series_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
)

// round feeds c one synthetic round: start, the given mid-round events,
// end. Node -1 mirrors the runtime's round markers.
func round(c trace.Collector, r int, events ...trace.Event) {
	c.Collect(trace.Event{Kind: trace.KindRoundStart, Round: r, Node: -1})
	for _, e := range events {
		e.Round = r
		c.Collect(e)
	}
	c.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: r, Node: -1})
}

// ingest returns key's series collector behind a liveCounters fold of
// the same stream, the way a runtime's counters advance beside it.
func ingest(st *series.Store, key string, sinks ...series.Sink) trace.Collector {
	lc := &liveCounters{}
	return trace.Multi(lc, st.IngestTotals(key, lc.sample, sinks...))
}

func TestIngestAccumulatesOneRound(t *testing.T) {
	st := series.New(0)
	var got []series.Point
	sink := func(key string, p series.Point) {
		if key != "IQ" {
			t.Errorf("sink key = %q, want IQ", key)
		}
		got = append(got, p)
	}
	in := ingest(st, "IQ", sink)

	round(in, 0,
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 100, Frames: 2},
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseFilter, Wire: 10, Frames: 1},
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseRefinement, Wire: 40, Frames: 1},
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseCollect, Wire: 200, Frames: 3},
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseInit, Wire: 30, Frames: 1},
		trace.Event{Kind: trace.KindSend, Phase: "exotic", Wire: 7, Frames: 1},
		trace.Event{Kind: trace.KindEnergy, Node: 3, Joules: 2e-6},
		trace.Event{Kind: trace.KindEnergy, Node: 5, Joules: 5e-6},
		trace.Event{Kind: trace.KindEnergy, Node: 3, Joules: 1e-6},
		trace.Event{Kind: trace.KindDecision, Err: 4},
		trace.Event{Kind: trace.KindRefine},
		trace.Event{Kind: trace.KindRefine},
	)

	if len(got) != 1 {
		t.Fatalf("sink saw %d points, want 1", len(got))
	}
	p := got[0]
	if p.Round != 0 || p.Span != 1 {
		t.Errorf("point round/span = %d/%d, want 0/1", p.Round, p.Span)
	}
	if p.Messages != 6 || p.Frames != 9 {
		t.Errorf("messages/frames = %d/%d, want 6/9", p.Messages, p.Frames)
	}
	if p.ValidationBits != 110 { // validation + filter
		t.Errorf("validation bits = %d, want 110", p.ValidationBits)
	}
	if p.RefinementBits != 40 {
		t.Errorf("refinement bits = %d, want 40", p.RefinementBits)
	}
	if p.ShippingBits != 230 { // collect + init
		t.Errorf("shipping bits = %d, want 230", p.ShippingBits)
	}
	if p.OtherBits != 7 {
		t.Errorf("other bits = %d, want 7", p.OtherBits)
	}
	if p.Bits() != 387 {
		t.Errorf("total bits = %d, want 387", p.Bits())
	}
	if math.Abs(p.Joules-8e-6) > 1e-18 {
		t.Errorf("joules = %g, want 8e-6", p.Joules)
	}
	if math.Abs(p.HotJoules-5e-6) > 1e-18 { // node 5's cumulative drain
		t.Errorf("hot joules = %g, want 5e-6", p.HotJoules)
	}
	if p.RankError != 4 {
		t.Errorf("rank error = %d, want 4", p.RankError)
	}
	if p.Refines != 2 {
		t.Errorf("refines = %d, want 2", p.Refines)
	}

	pts := st.Points("IQ")
	if len(pts) != 1 || pts[0] != p {
		t.Errorf("stored points = %+v, want the sink's point %+v", pts, p)
	}
	if st.Points("nope") != nil {
		t.Error("unknown key should return nil points")
	}
}

// TestIngestFaultTraffic checks the fault-mode accounting: ARQ
// retransmissions count as retries (frames and bits, no logical
// message), Ack-cast control frames add frames and bits only, and
// degraded-answer tags set the round's orphan watermark.
func TestIngestFaultTraffic(t *testing.T) {
	st := series.New(0)
	var got []series.Point
	in := ingest(st, "HBC", func(_ string, p series.Point) { got = append(got, p) })
	round(in, 0,
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 100, Frames: 1},
		trace.Event{Kind: trace.KindRetry, Phase: sim.PhaseValidation, Wire: 100, Frames: 1, Aux: 1},
		trace.Event{Kind: trace.KindRetry, Phase: sim.PhaseValidation, Wire: 100, Frames: 1, Aux: 2},
		trace.Event{Kind: trace.KindSend, Cast: trace.Ack, Phase: sim.PhaseValidation, Wire: 128, Frames: 1},
		trace.Event{Kind: trace.KindReceive, Cast: trace.Ack, Phase: sim.PhaseValidation, Wire: 128, Frames: 1},
		trace.Event{Kind: trace.KindDegraded, Node: -1, Value: 5, Values: 3, Aux: 2, Err: 5},
		trace.Event{Kind: trace.KindDegraded, Node: -1, Value: 4, Values: 2, Aux: 3, Err: 4},
	)
	if len(got) != 1 {
		t.Fatalf("sink saw %d points, want 1", len(got))
	}
	p := got[0]
	if p.Messages != 1 {
		t.Errorf("messages = %d, want 1 (retries and acks are not payloads)", p.Messages)
	}
	if p.Retries != 2 {
		t.Errorf("retries = %d, want 2", p.Retries)
	}
	if p.Frames != 4 { // payload + 2 retries + ack
		t.Errorf("frames = %d, want 4", p.Frames)
	}
	if p.ValidationBits != 428 { // 100 + 2*100 + 128
		t.Errorf("validation bits = %d, want 428", p.ValidationBits)
	}
	if p.Orphans != 3 { // the round's worst degraded tag
		t.Errorf("orphans = %d, want 3", p.Orphans)
	}
}

// TestIngestHotJoulesIsCumulative checks the watermark rises across
// rounds (cumulative per-node drain), not per-round energy.
func TestIngestHotJoulesIsCumulative(t *testing.T) {
	st := series.New(0)
	in := ingest(st, "k")
	for r := 0; r < 3; r++ {
		round(in, r, trace.Event{Kind: trace.KindEnergy, Node: 0, Joules: 1e-6})
	}
	pts := st.Points("k")
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, want := range []float64{1e-6, 2e-6, 3e-6} {
		if math.Abs(pts[i].HotJoules-want) > 1e-18 {
			t.Errorf("round %d hot joules = %g, want %g", i, pts[i].HotJoules, want)
		}
	}
}

// TestIngestIgnoresUnopenedRoundEnd checks a second round end after a
// closed round (no round start between them) records nothing more.
func TestIngestIgnoresUnopenedRoundEnd(t *testing.T) {
	st := series.New(0)
	in := ingest(st, "k")
	round(in, 0, trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 8, Frames: 1})
	in.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: 0, Node: -1})
	if pts := st.Points("k"); len(pts) != 1 {
		t.Errorf("repeated round end recorded %d points, want 1", len(pts))
	}
}

// TestDownsamplingConservesTotals drives a small-capacity store far past
// its budget and checks the additive fields survive the halvings intact,
// the worst rank error is kept, and the point count stays bounded.
func TestDownsamplingConservesTotals(t *testing.T) {
	st := series.New(8) // clamped to the 8-point minimum
	in := ingest(st, "k")
	const rounds = 1000
	wantFrames := 0
	for r := 0; r < rounds; r++ {
		wantFrames += r % 7
		round(in, r,
			trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 32, Frames: r % 7},
			trace.Event{Kind: trace.KindDecision, Err: r % 13},
		)
	}
	snap := st.Snapshot()["k"]
	if snap.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", snap.Rounds, rounds)
	}
	if snap.Stride&(snap.Stride-1) != 0 || snap.Stride < rounds/8 {
		t.Errorf("stride = %d, want a power of two >= %d", snap.Stride, rounds/8)
	}
	if len(snap.Points) > 8 {
		t.Errorf("points = %d, exceeds the 8-point capacity", len(snap.Points))
	}
	gotFrames, gotSpan, gotBits, worst := 0, 0, 0, 0
	prevRound := -1
	for _, p := range snap.Points {
		gotFrames += p.Frames
		gotSpan += p.Span
		gotBits += p.Bits()
		if p.RankError > worst {
			worst = p.RankError
		}
		if p.Round <= prevRound {
			t.Errorf("points out of order: round %d after %d", p.Round, prevRound)
		}
		prevRound = p.Round
	}
	if gotFrames != wantFrames {
		t.Errorf("total frames after downsampling = %d, want %d", gotFrames, wantFrames)
	}
	if gotSpan != rounds {
		t.Errorf("total span = %d, want %d", gotSpan, rounds)
	}
	if gotBits != 32*rounds {
		t.Errorf("total bits = %d, want %d", gotBits, 32*rounds)
	}
	if worst != 12 { // max of r%13
		t.Errorf("worst rank error = %d, want 12", worst)
	}
}

// TestReleaseMatchesSnapshot: Release exports what Snapshot does —
// downsampled points and the partial pending span included — and
// leaves the store empty, so later ingestion cannot reach the released
// points.
func TestReleaseMatchesSnapshot(t *testing.T) {
	st := series.New(8)
	for r := 0; r < 45; r++ {
		st.Add("a", series.Point{Frames: r})
		if r%3 == 0 {
			st.Add("b", series.Point{Joules: float64(r)})
		}
	}
	want := st.Snapshot()
	got := st.Release()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Release %+v, Snapshot %+v", got, want)
	}
	if len(st.Keys()) != 0 {
		t.Fatalf("store keeps keys %v after Release", st.Keys())
	}
	st.Add("a", series.Point{Frames: -1})
	if !reflect.DeepEqual(got["a"], want["a"]) {
		t.Fatal("ingestion after Release changed a released series")
	}
}

// TestSinksSeeRawPoints checks alert sinks observe every span-1 round
// even when the store itself has downsampled far past them.
func TestSinksSeeRawPoints(t *testing.T) {
	st := series.New(8)
	raw := 0
	in := ingest(st, "k", func(key string, p series.Point) {
		if p.Span != 1 {
			t.Fatalf("sink saw span-%d point, want raw span-1", p.Span)
		}
		if p.Round != raw {
			t.Fatalf("sink saw round %d, want %d", p.Round, raw)
		}
		raw++
	})
	for r := 0; r < 100; r++ {
		round(in, r)
	}
	if raw != 100 {
		t.Errorf("sink saw %d rounds, want 100", raw)
	}
}

func TestPointRates(t *testing.T) {
	p := series.Point{Span: 4, Frames: 8, Messages: 6, Joules: 2e-6, ValidationBits: 100, OtherBits: 20}
	if got := p.FramesPerRound(); got != 2 {
		t.Errorf("frames/round = %g, want 2", got)
	}
	if got := p.JoulesPerRound(); math.Abs(got-5e-7) > 1e-18 {
		t.Errorf("joules/round = %g, want 5e-7", got)
	}
	if got := p.BitsPerRound(); got != 30 {
		t.Errorf("bits/round = %g, want 30", got)
	}
	var zero series.Point // span 0 must not divide by zero
	if got := zero.FramesPerRound(); got != 0 {
		t.Errorf("zero point frames/round = %g, want 0", got)
	}
}

func TestWindowStats(t *testing.T) {
	st := series.New(0)
	in := ingest(st, "k")
	for r := 0; r < 10; r++ {
		var evs []trace.Event
		for f := 0; f < r+1; f++ { // frames 1..10
			evs = append(evs, trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 8, Frames: 1})
		}
		round(in, r, evs...)
	}
	w := st.Window("k", 4, series.Point.FramesPerRound) // frames 7,8,9,10
	if w.Points != 4 {
		t.Errorf("window points = %d, want 4", w.Points)
	}
	if w.Mean != 8.5 {
		t.Errorf("window mean = %g, want 8.5", w.Mean)
	}
	if w.Max != 10 {
		t.Errorf("window max = %g, want 10", w.Max)
	}
	if w.P95 != 10 { // nearest-rank p95 of 4 samples
		t.Errorf("window p95 = %g, want 10", w.P95)
	}
	if all := st.Window("k", 0, series.Point.FramesPerRound); all.Points != 10 || all.Mean != 5.5 {
		t.Errorf("full window = %+v, want 10 points, mean 5.5", all)
	}
	if empty := st.Window("nope", 4, series.Point.FramesPerRound); empty != (series.WindowStats{}) {
		t.Errorf("unknown key window = %+v, want zero", empty)
	}
}

func TestKeysSorted(t *testing.T) {
	st := series.New(0)
	for _, k := range []string{"zeta/IQ", "alpha/HBC", "alpha/IQ"} {
		round(ingest(st, k), 0)
	}
	got := st.Keys()
	want := []string{"alpha/HBC", "alpha/IQ", "zeta/IQ"}
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

// TestSeriesRingRace is the race-hammer gate of `make alert`: several
// ingesters append to their own keys while readers snapshot, window,
// and list concurrently. Run with -race.
func TestSeriesRingRace(t *testing.T) {
	st := series.New(16)
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := ingest(st, k, func(string, series.Point) {})
			for r := 0; r < 500; r++ {
				round(in, r,
					trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 8, Frames: 1},
					trace.Event{Kind: trace.KindEnergy, Node: r % 8, Joules: 1e-7},
				)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				st.Snapshot()
				st.Keys()
				for _, k := range keys {
					st.Points(k)
					st.Window(k, 8, series.Point.JoulesPerRound)
				}
			}
		}()
	}
	wg.Wait()
	for _, k := range keys {
		if snap := st.Snapshot()[k]; snap.Rounds != 500 {
			t.Errorf("key %s: rounds = %d, want 500", k, snap.Rounds)
		}
	}
}

// liveCounters mirrors the cumulative counters a runtime exposes to
// IngestTotals, derived from a synthetic event stream.
type liveCounters struct {
	t    series.Totals
	node []float64
}

func (lc *liveCounters) Collect(e trace.Event) {
	switch e.Kind {
	case trace.KindSend:
		// Ack-cast sends are control frames: the runtime books their
		// frames and bits but no logical payload.
		if e.Cast != trace.Ack {
			lc.t.Messages++
		}
		lc.t.Frames += e.Frames
		lc.t.TotalBits += e.Wire
		lc.phaseBits(e)
	case trace.KindRetry:
		lc.t.Retries++
		lc.t.Frames += e.Frames
		lc.t.TotalBits += e.Wire
		lc.phaseBits(e)
	case trace.KindEnergy:
		lc.t.Joules += e.Joules
		if e.Node >= 0 {
			for len(lc.node) <= e.Node {
				lc.node = append(lc.node, 0)
			}
			lc.node[e.Node] += e.Joules
			if lc.node[e.Node] > lc.t.HotJoules {
				lc.t.HotJoules = lc.node[e.Node]
			}
		}
	}
}

func (lc *liveCounters) phaseBits(e trace.Event) {
	switch e.Phase {
	case sim.PhaseValidation, sim.PhaseFilter:
		lc.t.ValidationBits += e.Wire
	case sim.PhaseRefinement:
		lc.t.RefinementBits += e.Wire
	case sim.PhaseCollect, sim.PhaseInit:
		lc.t.ShippingBits += e.Wire
	}
}

func (lc *liveCounters) sample() series.Totals { return lc.t }

// TestIngestTotalsMatchesEventIngest feeds one synthetic multi-round
// stream, fault traffic included, through the sampling ingester and
// records it beside; the stored and the sunk points must both equal the
// reference fold of the recorded events: diffing cumulative counters is
// an optimization, not a different metric.
func TestIngestTotalsMatchesEventIngest(t *testing.T) {
	st := series.New(0)
	lc := &liveCounters{}
	rec := trace.NewRecorder()
	var sunk []series.Point
	both := trace.Multi(
		rec,
		lc, // counters update before the ingester samples at round end
		st.IngestTotals("k", lc.sample, func(_ string, p series.Point) { sunk = append(sunk, p) }),
	)

	phases := []string{sim.PhaseValidation, sim.PhaseFilter, sim.PhaseRefinement, sim.PhaseCollect, sim.PhaseInit, "exotic"}
	for r := 0; r < 50; r++ {
		var events []trace.Event
		for i := 0; i < 1+r%5; i++ {
			events = append(events,
				trace.Event{Kind: trace.KindSend, Phase: phases[(r+i)%len(phases)], Wire: 10*r + i, Frames: 1 + i%3},
				trace.Event{Kind: trace.KindEnergy, Node: (r + i) % 7, Joules: float64(r+1) * 1e-7},
			)
		}
		if r%3 == 0 {
			events = append(events,
				trace.Event{Kind: trace.KindDecision, Err: r % 11},
				trace.Event{Kind: trace.KindRefine},
			)
		}
		if r%4 == 1 {
			// Fault-mode traffic: an ARQ retransmission, its eventual ACK
			// (a Cast=Ack control frame pair), and a degraded-answer tag.
			events = append(events,
				trace.Event{Kind: trace.KindRetry, Phase: phases[r%len(phases)], Wire: 60 + r, Frames: 1, Aux: 1},
				trace.Event{Kind: trace.KindSend, Cast: trace.Ack, Phase: phases[r%len(phases)], Wire: 128, Frames: 1},
				trace.Event{Kind: trace.KindReceive, Cast: trace.Ack, Phase: phases[r%len(phases)], Wire: 128, Frames: 1},
				trace.Event{Kind: trace.KindDegraded, Node: -1, Value: 1 + r%4, Values: r % 4, Aux: 1, Err: 1 + r%4},
			)
		}
		round(both, r, events...)
	}

	want := simtest.FoldRounds(rec.Events())
	if len(want) != 50 {
		t.Fatalf("fold has %d rounds, want 50", len(want))
	}
	for _, m := range simtest.Mismatches(st.Points("k"), want) {
		t.Error("stored: " + m)
	}
	for _, m := range simtest.Mismatches(sunk, want) {
		t.Error("sunk: " + m)
	}
}

// TestIngestTotalsIgnoresUnopenedRoundEnd checks a stray round end
// without a matching start (e.g. a collector attached mid-round)
// records nothing.
func TestIngestTotalsIgnoresUnopenedRoundEnd(t *testing.T) {
	st := series.New(0)
	lc := &liveCounters{}
	in := st.IngestTotals("k", lc.sample)
	in.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: 7, Node: -1})
	if pts := st.Points("k"); len(pts) != 0 {
		t.Errorf("stray round end recorded %d points, want 0", len(pts))
	}
}

// TestIngestTotalsDiffsFromAttach checks a collector attached
// to a warm runtime (nonzero counters) baselines at the attach sample
// instead of double-counting history.
func TestIngestTotalsDiffsFromAttach(t *testing.T) {
	st := series.New(0)
	lc := &liveCounters{}
	// History before the collector attaches.
	lc.Collect(trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 1000, Frames: 9})
	lc.Collect(trace.Event{Kind: trace.KindEnergy, Node: 0, Joules: 5e-6})
	in := trace.Multi(lc, st.IngestTotals("k", lc.sample))
	round(in, 3,
		trace.Event{Kind: trace.KindSend, Phase: sim.PhaseValidation, Wire: 40, Frames: 1},
		trace.Event{Kind: trace.KindEnergy, Node: 1, Joules: 1e-6},
	)
	pts := st.Points("k")
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	p := pts[0]
	if p.ValidationBits != 40 || p.Frames != 1 || p.Messages != 1 {
		t.Errorf("point counted pre-attach history: %+v", p)
	}
	if math.Abs(p.Joules-1e-6) > 1e-18 {
		t.Errorf("joules = %g, want 1e-6", p.Joules)
	}
	// HotJoules is an absolute watermark, so pre-attach drain shows.
	if math.Abs(p.HotJoules-5e-6) > 1e-18 {
		t.Errorf("hot joules = %g, want 5e-6", p.HotJoules)
	}
}
