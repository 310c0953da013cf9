package serve

import (
	"reflect"
	"testing"

	"wsnq/internal/alert"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/prof"
	"wsnq/internal/series"
)

// queryStream is everything a client can read of one query: its
// Updates with the wall-clock LatencyMs cleared, its series points with
// the wall-clock StepMs column cleared, and its alert log.
type queryStream struct {
	updates []Update
	points  []series.Point
	alerts  alert.Log
}

// drain collects the updates pending on sub and the query's series and
// alert state.
func drain(q *Query, sub *Subscription) queryStream {
	var s queryStream
	for pending := true; pending; {
		select {
		case u, ok := <-sub.Updates():
			if pending = ok; ok {
				u.LatencyMs = 0
				s.updates = append(s.updates, u)
			}
		default:
			pending = false
		}
	}
	for _, p := range q.Series().Points(q.Spec().Key) {
		p.StepMs = 0
		s.points = append(s.points, p)
	}
	if eng := q.Alerts(); eng != nil {
		s.alerts = eng.Log()
	}
	return s
}

// coalesceFleet is one fleet the parity test hosts.
type coalesceFleet struct {
	name      string
	cfg       experiment.Config
	plan      string // fault plan; empty for none
	algorithm string
}

func (f coalesceFleet) registry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(Config{SubscriberBuffer: 64})
	var plan *fault.Plan
	if f.plan != "" {
		var err error
		if plan, err = fault.Parse(f.plan); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.AddFaultyFleet("fleet0", f.cfg, plan, nil); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCoalescedQueriesMatchAlone is the coalescing parity test: each
// query that shares a protocol instance reads exactly what it reads
// when registered alone on an identical fleet in its own registry —
// Updates, series points and alert log — on a loss-free, a lossy and a
// faulty fleet. One sharer deregisters mid-stream without changing the
// others' streams; a same-key query with an adaptation policy, and one
// registered after the group's first round, each get their own
// instance.
func TestCoalescedQueriesMatchAlone(t *testing.T) {
	const rounds, leaveAt, lateAt = 24, 9, 5
	lossy := testCfg()
	lossy.LossProb = 0.25
	fleets := []coalesceFleet{
		{name: "loss-free", cfg: testCfg(), algorithm: "IQ"},
		{name: "lossy", cfg: lossy, algorithm: "HBC"},
		{name: "faulty", cfg: testCfg(), plan: "crash@4-12:n5; burst(p=0.5,len=3):n7", algorithm: "IQ"},
	}
	for _, f := range fleets {
		t.Run(f.name, func(t *testing.T) {
			specs := []Spec{
				{ID: "a", Fleet: "fleet0", Algorithm: f.algorithm, Phi: 0.5, Rules: "storm; excursion"},
				{ID: "b", Fleet: "fleet0", Algorithm: f.algorithm, Phi: 0.5},
				{ID: "c", Fleet: "fleet0", Algorithm: f.algorithm, Phi: 0.5, Rules: "excursion", SLO: "rank; fresh"},
				{ID: "d", Fleet: "fleet0", Algorithm: f.algorithm, Phi: 0.5, Rules: "storm",
					Adapt: "on storm(warn) do widen 1.5 cooldown 6"},
			}
			late := Spec{ID: "e", Fleet: "fleet0", Algorithm: f.algorithm, Phi: 0.5, Rules: "storm"}

			// The shared registry: a, b and c coalesce, d runs alone, b
			// leaves mid-stream and e arrives after the first round.
			shared := f.registry(t)
			qs := map[string]*Query{}
			subs := map[string]*Subscription{}
			register := func(sp Spec) {
				q, err := shared.Register(sp)
				if err != nil {
					t.Fatal(err)
				}
				qs[sp.ID], subs[sp.ID] = q, q.Subscribe()
			}
			for _, sp := range specs {
				register(sp)
			}
			got := map[string]queryStream{}
			for i := 0; i < rounds; i++ {
				if i == lateAt {
					register(late)
				}
				if i == leaveAt {
					got["b"] = drainAfterLeave(t, shared, qs["b"], subs["b"])
				}
				shared.Advance()
				switch {
				case i == 0 && shared.Instances() != 2:
					t.Fatalf("round 0 stepped %d instances for a+b+c and d, want 2", shared.Instances())
				case i == lateAt && shared.Instances() != 3:
					t.Fatalf("round %d stepped %d instances with the late e, want 3", i, shared.Instances())
				}
			}
			sawReinit := false
			for id, q := range qs {
				// Every closed round has a point: all but the last one
				// of a live query, and every one of b, whose final round
				// its deregistration flushed.
				if id != "b" {
					got[id] = drain(q, subs[id])
				}
				n := len(got[id].updates) - 1
				if id == "b" {
					n++
				}
				if len(got[id].points) != n {
					t.Fatalf("%s: %d series points over %d updates, want %d", id, len(got[id].points), len(got[id].updates), n)
				}
				for _, u := range got[id].updates {
					if u.Failed != "" {
						t.Fatalf("%s round %d failed: %s", id, u.Round, u.Failed)
					}
					sawReinit = sawReinit || u.Reinit
				}
			}
			if f.name != "loss-free" && !sawReinit {
				t.Fatalf("%s fleet: no round replayed the initialization", f.name)
			}

			// Each query alone, from the same registry round on.
			for _, sp := range append(specs, late) {
				alone := f.registry(t)
				start, stop := 0, rounds
				if sp.ID == late.ID {
					start = lateAt
				}
				if sp.ID == "b" {
					stop = leaveAt
				}
				q, err := alone.Register(sp)
				if err != nil {
					t.Fatal(err)
				}
				sub := q.Subscribe()
				for i := start; i < stop; i++ {
					alone.Advance()
				}
				var want queryStream
				if sp.ID == "b" {
					want = drainAfterLeave(t, alone, q, sub)
				} else {
					want = drain(q, sub)
				}
				if len(want.updates) != stop-start {
					t.Fatalf("%s alone: %d updates, want %d", sp.ID, len(want.updates), stop-start)
				}
				if !reflect.DeepEqual(got[sp.ID], want) {
					t.Errorf("%s: coalesced stream differs from the query alone\ncoalesced %+v\nalone     %+v",
						sp.ID, got[sp.ID], want)
				}
			}
		})
	}
}

// drainAfterLeave deregisters q and collects its stream, which then
// holds the final round's flushed series point.
func drainAfterLeave(t *testing.T, r *Registry, q *Query, sub *Subscription) queryStream {
	t.Helper()
	if err := r.Deregister(q.ID()); err != nil {
		t.Fatal(err)
	}
	return drain(q, sub)
}

// TestProfiledRegistryRunsQueriesAlone checks the other rule of the
// coalescing key: on a profiled registry same-key queries keep their own
// protocol instances, so each round is attributed to one query.
func TestProfiledRegistryRunsQueriesAlone(t *testing.T) {
	rec := prof.NewRecorder()
	r := newTestRegistry(t, Config{Prof: rec})
	for _, id := range []string{"a", "b"} {
		if _, err := r.Register(Spec{ID: id, Fleet: "fleet0", Algorithm: "IQ", Phi: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if n := r.Advance(); n != 2 {
			t.Fatalf("Advance stepped %d queries, want 2", n)
		}
	}
	if n := r.Instances(); n != 2 {
		t.Fatalf("profiled registry stepped %d instances for two same-key queries, want 2", n)
	}
	if len(rec.Report().Scope("IQ")) == 0 {
		t.Fatal("no IQ attribution recorded")
	}
}
