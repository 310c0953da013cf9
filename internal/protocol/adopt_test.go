package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// countersEmpty reports whether a validation payload carries no
// information at all, so a node sends nothing.
func countersEmpty(c *Counters) bool {
	return c.OutOfL == 0 && c.IntoL == 0 && c.OutOfG == 0 && c.IntoG == 0 &&
		!c.HasLo && !c.HasHi && len(c.Attached) == 0
}

// ownFirstValidation is RunValidation as it was before relaying nodes
// adopted their first child's payload: every node takes a fresh payload,
// fills in its own contribution, then merges its children into it.
func ownFirstValidation(rt *sim.Runtime, spec ValidationSpec) Counters {
	sizes := rt.Sizes()
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		cur := rt.Reading(n)
		c := &Counters{mode: spec.Hints, sizes: sizes}
		oldR := Classify(spec.Prev(n), spec.Lb, spec.Ub)
		newR := Classify(cur, spec.Lb, spec.Ub)
		if oldR != newR {
			switch oldR {
			case RegionLess:
				c.OutOfL = 1
			case RegionGreater:
				c.OutOfG = 1
			}
			switch newR {
			case RegionLess:
				c.IntoL = 1
				c.HintLo, c.HasLo = cur, true
			case RegionGreater:
				c.IntoG = 1
				c.HintHi, c.HasHi = cur, true
			}
		}
		if spec.Attach != nil && spec.Attach(n, cur) {
			c.Attached = append(c.Attached, cur)
		}
		for _, ch := range children {
			c.merge(ch.(*Counters))
		}
		if countersEmpty(c) {
			return nil
		}
		return c
	})
	root := Counters{mode: spec.Hints, sizes: sizes}
	for _, p := range atRoot {
		root.merge(p.(*Counters))
	}
	slices.Sort(root.Attached)
	return root
}

// ownFirstGather is GatherValues as it was before relaying nodes
// adopted their first child's payload: own value first, then the
// children's, in a fresh payload per node.
func ownFirstGather(rt *sim.Runtime, keep func(node, v int) bool, trim func([]int) []int) []int {
	sizes := rt.Sizes()
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		v := &Values{sizes: sizes}
		if r := rt.Reading(n); keep(n, r) {
			v.Vals = append(v.Vals, r)
		}
		for _, ch := range children {
			v.Vals = append(v.Vals, ch.(*Values).Vals...)
		}
		if trim != nil {
			v.Vals = trim(v.Vals)
		}
		if len(v.Vals) == 0 {
			return nil
		}
		return v
	})
	var all []int
	for _, p := range atRoot {
		all = append(all, p.(*Values).Vals...)
	}
	return all
}

// twinRuntimes builds two identical traced runtimes over one seeded
// random deployment (with artificial children on odd seeds).
func twinRuntimes(t *testing.T, seed int64, loss float64) (got, want *sim.Runtime, gotTr, wantTr *trace.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := wsn.BuildConnectedTree(20+rng.Intn(40), 150, 45, rng, 200, wsn.BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 1 {
		if top, err = wsn.ExpandVirtual(top, 3); err != nil {
			t.Fatal(err)
		}
	}
	src, err := data.NewTrace(randomSeries(rng, top.N(), 12, 64))
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*sim.Runtime, *trace.Recorder) {
		tr := trace.NewRecorder()
		rt, err := sim.New(sim.Config{
			Topology: top, Source: src,
			Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams(),
			LossProb: loss, Seed: seed, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt, tr
	}
	got, gotTr = build()
	want, wantTr = build()
	return got, want, gotTr, wantTr
}

// sameTraffic fails unless the twins agree on statistics, energy
// ledgers and recorded event streams.
func sameTraffic(t *testing.T, where string, got, want *sim.Runtime, gotTr, wantTr *trace.Recorder) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Fatalf("%s: stats differ\n got  %+v\n want %+v", where, got.Stats(), want.Stats())
	}
	if g, w := got.Ledger().Snapshot(), want.Ledger().Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ledgers differ", where)
	}
	if !slices.Equal(gotTr.Events(), wantTr.Events()) {
		t.Fatalf("%s: event streams differ (%d vs %d events)", where, len(gotTr.Events()), len(wantTr.Events()))
	}
}

// TestAdoptingPayloadsMatchesOwnFirst: relaying nodes that adopt their
// first child's payload (and silent nodes that take none) change
// nothing observable. On random trees, loss-free and lossy, with and
// without artificial children, RunValidation (with and without Attach)
// and GatherValues (with and without trim) deliver the same sorted root
// result as the own-first reference, with the same statistics, energy
// charges and event stream.
func TestAdoptingPayloadsMatchesOwnFirst(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, loss := range []float64{0, 0.2} {
			got, want, gotTr, wantTr := twinRuntimes(t, seed, loss)
			lost := 0
			for round := 0; round < 10; round++ {
				where := fmt.Sprintf("seed %d loss %v round %d", seed, loss, round)
				filter := 20 + 3*round
				for _, attach := range []bool{false, true} {
					spec := func(rt *sim.Runtime) ValidationSpec {
						s := ValidationSpec{
							Lb: filter, Ub: filter + 1 + round%3,
							Prev:  func(n int) int { return rt.ReadingAt(n, max(round-1, 0)) },
							Hints: HintMode(round % 3),
						}
						if attach {
							s.Attach = func(_, v int) bool { return v >= filter-8 && v <= filter+8 }
						}
						return s
					}
					g := RunValidation(nil, got, spec(got))
					w := ownFirstValidation(want, spec(want))
					if len(g.Attached) == 0 && len(w.Attached) == 0 {
						g.Attached, w.Attached = nil, nil
					}
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s attach %v: root counters %+v, want %+v", where, attach, g, w)
					}
				}
				keep := func(n, v int) bool { return (n+round)%3 != 0 && v < 48 }
				for _, trim := range []func([]int) []int{nil, func(vals []int) []int {
					slices.Sort(vals)
					return vals[:min(len(vals), 5)]
				}} {
					g := GatherValues(nil, got, got.Topology().PostOrder, keep, trim)
					w := ownFirstGather(want, keep, trim)
					slices.Sort(g)
					slices.Sort(w)
					if !slices.Equal(g, w) {
						t.Fatalf("%s trim %v: root values %v, want %v", where, trim != nil, g, w)
					}
				}
				sameTraffic(t, where, got, want, gotTr, wantTr)
				got.AdvanceRound()
				want.AdvanceRound()
			}
			lost += got.Stats().PayloadsLost
			if loss > 0 && lost == 0 {
				t.Fatalf("seed %d: lossy fixture lost nothing", seed)
			}
		}
	}
}
