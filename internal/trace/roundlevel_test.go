package trace_test

import (
	"reflect"
	"testing"

	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
)

// lossyFaultyRun drives IQ for 30 rounds on a lossy 60-node fleet with a
// relay crash, a bursty link under ARQ and a sink partition, so a full
// collector sees every per-hop kind — sends, receives, drops, fragments
// (the frames are shrunk to 8 bytes), debits, retries, and ACK and join
// frames — and degraded answers with orphans. attach builds the
// runtime's collector once the runtime exists.
func lossyFaultyRun(t *testing.T, attach func(rt *sim.Runtime) trace.Collector) {
	t.Helper()
	cfg := experiment.Default()
	cfg.Nodes, cfg.Area, cfg.RadioRange = 60, 80, 25
	cfg.LossProb = 0.1
	cfg.Seed = 11
	cfg.Sizes.PayloadBits = 64 // small frames, so relays fragment
	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash@4-9:n3; burst(p=0.4,len=3):n9; partition@20-23")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dep.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := experiment.ResolveAlgorithm("IQ")
	if err != nil {
		t.Fatal(err)
	}
	drv, err := experiment.NewDriver(rt, factory(), cfg.K(), experiment.Rig{
		Trace: attach(rt), Faults: plan, FaultSeed: experiment.FaultSeed(cfg, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if _, err := drv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rt.EndTrace()
}

func isHopKind(k trace.Kind) bool {
	switch k {
	case trace.KindSend, trace.KindReceive, trace.KindDrop,
		trace.KindFragment, trace.KindEnergy, trace.KindRetry:
		return true
	}
	return false
}

// kindCounter counts the events it receives by kind.
type kindCounter map[trace.Kind]int

func (c kindCounter) Collect(e trace.Event) { c[e.Kind]++ }

// roundKindCounter is a kindCounter that declares itself round-level.
type roundKindCounter struct{ kindCounter }

func (roundKindCounter) SkipsHops() {}

// TestRoundCollectorSkipsHops pins the round-level contract: a
// collector marked trace.RoundCollector receives no per-hop event, but
// every round-level event a full collector receives, and the run's
// series points are the same whether the ingester is attached alone or
// beside a full recorder.
func TestRoundCollectorSkipsHops(t *testing.T) {
	full, round := kindCounter{}, roundKindCounter{kindCounter{}}
	lossyFaultyRun(t, func(*sim.Runtime) trace.Collector { return full })
	lossyFaultyRun(t, func(*sim.Runtime) trace.Collector { return round })
	for _, k := range []trace.Kind{trace.KindSend, trace.KindReceive, trace.KindDrop,
		trace.KindFragment, trace.KindEnergy, trace.KindRetry} {
		if full[k] == 0 {
			t.Errorf("the full collector saw no %s event; the run no longer exercises it", k)
		}
	}
	for k, n := range round.kindCounter {
		if isHopKind(k) {
			t.Errorf("round-level collector received %d %s events", n, k)
		}
	}
	for k, n := range full {
		if !isHopKind(k) && round.kindCounter[k] != n {
			t.Errorf("%s: round-level collector saw %d, full collector %d", k, round.kindCounter[k], n)
		}
	}

	points := func(withRecorder bool) []series.Point {
		st := series.New(series.DefaultCapacity)
		lossyFaultyRun(t, func(rt *sim.Runtime) trace.Collector {
			in := st.IngestTotals("k", experiment.SeriesSampler(rt))
			if withRecorder {
				return trace.Multi(in, trace.NewRecorder())
			}
			if _, ok := in.(trace.RoundCollector); !ok {
				t.Fatal("the totals ingester is not a round-level collector")
			}
			return in
		})
		return st.Points("k")
	}
	bare, beside := points(false), points(true)
	if len(bare) == 0 {
		t.Fatal("no series points")
	}
	if !reflect.DeepEqual(bare, beside) {
		t.Fatalf("points differ:\nbare   %+v\nbeside %+v", bare, beside)
	}
}

// TestSeriesMatchesEventFold holds the one series ingester to the
// recorded events of a lossy, faulty run: every round's point must
// equal the reference fold of that round's events — the integer
// anatomy exactly, the energies up to float summation order.
func TestSeriesMatchesEventFold(t *testing.T) {
	st := series.New(series.DefaultCapacity)
	rec := trace.NewRecorder()
	lossyFaultyRun(t, func(rt *sim.Runtime) trace.Collector {
		return trace.Multi(rec, st.IngestTotals("k", experiment.SeriesSampler(rt)))
	})
	got, want := st.Points("k"), simtest.FoldRounds(rec.Events())
	if len(got) != 30 {
		t.Fatalf("%d series points, want 30", len(got))
	}
	for _, m := range simtest.Mismatches(got, want) {
		t.Error(m)
	}
	var seen series.Point // per-field maxima, to show the run exercises each field
	for _, w := range want {
		seen.Retries = max(seen.Retries, w.Retries)
		seen.Refines = max(seen.Refines, w.Refines)
		seen.Orphans = max(seen.Orphans, w.Orphans)
		seen.Deficit = max(seen.Deficit, w.Deficit)
		seen.Staleness = max(seen.Staleness, w.Staleness)
	}
	acks := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSend && e.Cast == trace.Ack {
			acks++
		}
	}
	if seen.Retries == 0 || seen.Refines == 0 || seen.Orphans == 0 || seen.Deficit == 0 ||
		seen.Staleness == 0 || acks == 0 {
		t.Errorf("the run no longer exercises every fault field: maxima %+v, %d ACK frames", seen, acks)
	}
}
