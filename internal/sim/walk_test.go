package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnq/internal/approx"
	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// walkAlgorithms is every algorithm the walk differential drives: the
// six exact ones, the adaptive hybrid, and the two approximate ones.
func walkAlgorithms(t *testing.T) []experiment.Factory {
	t.Helper()
	var algs []experiment.Factory
	for _, name := range []string{"TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ", "ADAPT"} {
		mk, err := experiment.ResolveAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, mk)
	}
	return append(algs,
		func() protocol.Algorithm { return approx.NewQD(8) },
		func() protocol.Algorithm { return approx.NewSample(0.3) })
}

// walkDeployment builds a seeded connected deployment (with virtual
// children on odd seeds) and drifting readings over a 1024-value
// universe, rounds+1 rounds long.
func walkDeployment(t *testing.T, seed int64, rounds int) (*wsn.Topology, data.Source) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := wsn.BuildConnectedTree(40+rng.Intn(40), 200, 60, rng, 200, wsn.BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 1 {
		if top, err = wsn.ExpandVirtual(top, 2); err != nil {
			t.Fatal(err)
		}
	}
	src, err := data.NewTrace(simtest.CorrelatedSeries(rng, top.N(), rounds+1, 1024, 24))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetUniverse(0, 1023); err != nil {
		t.Fatal(err)
	}
	return top, src
}

// walkTwin is one side of the differential: a driven runtime and its
// recorder.
type walkTwin struct {
	rt  *sim.Runtime
	drv *experiment.Driver
	rec *trace.Recorder
}

func newWalkTwin(t *testing.T, top *wsn.Topology, src data.Source, alg protocol.Algorithm, k int, seed int64, loss float64, faults string, full bool) walkTwin {
	t.Helper()
	rt, err := sim.New(sim.Config{
		Topology: top, Source: src,
		Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams(),
		LossProb: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full {
		sim.SetFullWalk(rt)
	}
	rec := trace.NewRecorder()
	rig := experiment.Rig{Trace: rec, FaultSeed: seed}
	if faults != "" {
		if rig.Faults, err = fault.Parse(faults); err != nil {
			t.Fatal(err)
		}
	}
	drv, err := experiment.NewDriver(rt, alg, k, rig)
	if err != nil {
		t.Fatal(err)
	}
	return walkTwin{rt: rt, drv: drv, rec: rec}
}

// TestSelectiveWalkMatchesFullWalk is the walk differential: every
// algorithm runs twice on the same seed, once with ranged convergecasts
// walking only the holders' root paths and once on a runtime whose
// Holders lists every sensor. Loss-free, lossy and faulty (crash with
// recovery, a permanent crash, a bursty link, ARQ, light iid loss),
// every round must give the same answer, event stream, Stats and
// ledger and leave the visit mask clear, and the loss RNG must end on
// the same next draw.
func TestSelectiveWalkMatchesFullWalk(t *testing.T) {
	const rounds = 40
	settings := []struct {
		name string
		loss float64
		plan string // fault plan over node ids a, b, c
	}{
		{"loss-free", 0, ""},
		{"lossy", 0.1, ""},
		{"faulty", 0.05, "crash@5-20:n%d; crash@12:n%d; burst(p=0.5,len=3):n%d"},
	}
	refines, crashes, reinits := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		top, src := walkDeployment(t, seed, rounds)
		rng := rand.New(rand.NewSource(-seed))
		for _, set := range settings {
			faults := ""
			if set.plan != "" {
				faults = fmt.Sprintf(set.plan, rng.Intn(top.N()), rng.Intn(top.N()), rng.Intn(top.N()))
			}
			for _, mk := range walkAlgorithms(t) {
				k := 1 + rng.Intn(top.N())
				sel := newWalkTwin(t, top, src, mk(), k, seed, set.loss, faults, false)
				full := newWalkTwin(t, top, src, mk(), k, seed, set.loss, faults, true)
				name := sel.drv.Algorithm().Name()
				seen := 0
				for round := 0; round <= rounds; round++ {
					where := fmt.Sprintf("seed %d %s %s (%s) round %d", seed, set.name, name, faults, round)
					gv, gerr := sel.drv.Step()
					wv, werr := full.drv.Step()
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("%s: error %v, full walk %v", where, gerr, werr)
					}
					if gv != wv {
						t.Fatalf("%s: verdict %+v, full walk %+v", where, gv, wv)
					}
					if g, w := sel.rt.Stats(), full.rt.Stats(); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: stats differ\n got  %+v\n want %+v", where, g, w)
					}
					if g, w := sel.rt.Ledger().Snapshot(), full.rt.Ledger().Snapshot(); !slices.Equal(g, w) {
						t.Fatalf("%s: ledgers differ", where)
					}
					ge, we := sel.rec.Events(), full.rec.Events()
					if i := firstDiff(ge[seen:], we[seen:]); i >= 0 {
						t.Fatalf("%s: event %d differs or is missing (%d vs %d events)", where, seen+i, len(ge), len(we))
					}
					seen = len(ge)
					// A mark a crashed node kept is cleared here by the next
					// walk listing every sensor (each round's validation, a
					// recovery's re-initialization) before the node relays
					// again, so it never shows in the outputs above: check
					// the mask itself.
					if !sim.VisitMaskClear(sel.rt) {
						t.Fatalf("%s: visit mask left marked", where)
					}
					if gerr != nil {
						break
					}
					if gv.Reinit {
						reinits++
					}
				}
				if g, w := sim.NextDraw(sel.rt), sim.NextDraw(full.rt); g != w {
					t.Fatalf("seed %d %s %s: next RNG draw %d, full walk %d", seed, set.name, name, g, w)
				}
				for _, e := range sel.rec.Events() {
					switch e.Kind {
					case trace.KindRefine:
						refines++
					case trace.KindCrash:
						crashes++
					}
				}
			}
		}
	}
	t.Logf("%d refinement requests, %d crash events, %d reinit rounds", refines, crashes, reinits)
	// The comparison only means something if ranged primitives ran and
	// crashes and re-initializations occurred.
	if refines == 0 || crashes == 0 || reinits == 0 {
		t.Errorf("fixture too tame: %d refinement requests, %d crash events, %d reinit rounds", refines, crashes, reinits)
	}
}

// firstDiff returns the first index where a and b differ, counting a
// length mismatch, or -1 when they are equal.
func firstDiff(a, b []trace.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
