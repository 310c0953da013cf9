package wsnq

import (
	"testing"

	"wsnq/internal/trace"
)

// TestObserverSlotsAreFed sets each Observer slot alone and requires it
// to receive data in both contexts that accept the bundle: a study
// (WithObserver) and a live Simulation (Collector). The two documented
// gaps must stay empty instead: studies leave SLO detached (it only
// backs Handler's /slo), and Collector does not carry Prof (a live
// Simulation attaches it with SetProf). Key is a label, not a sink, so
// its row carries a Series to read the label back from.
func TestObserverSlotsAreFed(t *testing.T) {
	mustAlerts := func() *Alerts {
		a, err := NewAlerts("storm")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mustSLOs := func() *SLOs {
		s, err := NewSLOs("rank")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	slots := []struct {
		name        string
		build       func() *Observer
		fed         func(ob *Observer, study bool) bool
		study, live bool // whether the context feeds the slot
	}{
		{"Trace", func() *Observer { return &Observer{Trace: trace.NewRecorder()} },
			func(ob *Observer, _ bool) bool { return len(ob.Trace.(*trace.Recorder).Events()) > 0 }, true, true},
		{"Telemetry", func() *Observer { return &Observer{Telemetry: NewTelemetry()} },
			func(ob *Observer, _ bool) bool { return ob.Telemetry.Health().Rounds > 0 }, true, true},
		{"Series", func() *Observer { return &Observer{Series: NewSeries()} },
			func(ob *Observer, _ bool) bool { return len(ob.Series.Keys()) > 0 }, true, true},
		{"Alerts", func() *Observer { return &Observer{Alerts: mustAlerts()} },
			func(ob *Observer, _ bool) bool {
				st := ob.Alerts.States()
				return len(st) > 0 && st[0].Rounds > 0
			}, true, true},
		{"SLO", func() *Observer { return &Observer{SLO: mustSLOs()} },
			func(ob *Observer, _ bool) bool {
				st := ob.SLO.Statuses()
				return len(st) > 0 && st[0].Rounds > 0
			}, false, true},
		{"Prof", func() *Observer { return &Observer{Prof: NewProf()} },
			func(ob *Observer, _ bool) bool { return len(ob.Prof.Report().Stats) > 0 }, true, false},
		{"Key", func() *Observer { return &Observer{Series: NewSeries(), Key: "k"} },
			func(ob *Observer, study bool) bool {
				key := "k"
				if study {
					key = "k/IQ"
				}
				return len(ob.Series.Points(key)) > 0
			}, true, true},
	}
	cfg := quickCfg()
	for _, s := range slots {
		t.Run(s.name, func(t *testing.T) {
			ob := s.build()
			if _, err := Run(cfg, IQ, WithObserver(ob)); err != nil {
				t.Fatal(err)
			}
			if got := s.fed(ob, true); got != s.study {
				t.Errorf("study via WithObserver: fed = %v, want %v", got, s.study)
			}

			ob = s.build()
			sim, err := NewSimulation(cfg, IQ)
			if err != nil {
				t.Fatal(err)
			}
			sim.SetTrace(ob.Collector(sim, ""))
			for r := 0; r < 8; r++ {
				if _, err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
			sim.FinishTrace()
			if got := s.fed(ob, false); got != s.live {
				t.Errorf("live Simulation via Collector: fed = %v, want %v", got, s.live)
			}
		})
	}
}
