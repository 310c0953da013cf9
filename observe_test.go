package wsnq_test

import (
	"context"
	"strings"
	"testing"

	"wsnq"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
)

// stormStudy runs the pinned 60-node lossy HBC-vs-IQ comparison with
// the refinement-storm preset attached and returns the alert outcome.
func stormStudy(t *testing.T) (*wsnq.Series, *wsnq.Alerts) {
	t.Helper()
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 60
	cfg.Rounds = 60
	cfg.Runs = 2
	cfg.Seed = 7
	cfg.LossProb = 0.05
	alerts, err := wsnq.NewAlerts("storm")
	if err != nil {
		t.Fatal(err)
	}
	ser := wsnq.NewSeries()
	if _, err := wsnq.CompareContext(context.Background(), cfg, []wsnq.Algorithm{wsnq.HBC, wsnq.IQ},
		wsnq.WithObserver(&wsnq.Observer{Series: ser, Alerts: alerts})); err != nil {
		t.Fatal(err)
	}
	return ser, alerts
}

// TestGoldenAlertLog is the PR's acceptance study: under per-hop loss,
// HBC's histogram descent iterates (several refinement convergecasts in
// one round) and must trip the storm rule, while IQ — at most one
// collection per round by construction — must stay silent. The log
// must be identical across two executions (the engine forces
// sequential, deterministic grids whenever alerts are attached).
func TestGoldenAlertLog(t *testing.T) {
	_, alerts := stormStudy(t)
	log := alerts.Log()

	hbcAlerts, iqEvents := 0, 0
	for _, ev := range log {
		switch ev.Key {
		case "HBC":
			if ev.Level > wsnq.AlertOK {
				hbcAlerts++
			}
		case "IQ":
			iqEvents++
		default:
			t.Errorf("event for unexpected key %q: %s", ev.Key, ev.Message)
		}
	}
	if hbcAlerts == 0 {
		t.Errorf("storm rule fired no warn/crit for HBC; log:\n%s", log)
	}
	if iqEvents != 0 {
		t.Errorf("storm rule produced %d events for IQ, want 0; log:\n%s", iqEvents, log)
	}

	// Deterministic byte-for-byte: the same study yields the same log.
	_, again := stormStudy(t)
	if got, want := again.Log().String(), log.String(); got != want {
		t.Errorf("alert log differs between identical runs:\n--- first\n%s--- second\n%s", want, got)
	}
}

// TestStudySeriesRecorded checks the study above also leaves a usable
// time series per algorithm: every simulated round accounted for, and
// HBC's refinement phase visibly non-zero where IQ's validation
// dominates.
func TestStudySeriesRecorded(t *testing.T) {
	ser, _ := stormStudy(t)
	keys := ser.Keys()
	if len(keys) != 2 || keys[0] != "HBC" || keys[1] != "IQ" {
		t.Fatalf("series keys = %v, want [HBC IQ]", keys)
	}
	for _, key := range keys {
		snap := ser.Snapshot()[key]
		// 2 runs × 60 rounds (the init round is round 0 of the 60).
		if snap.Rounds != 2*60 {
			t.Errorf("%s: rounds = %d, want %d", key, snap.Rounds, 2*60)
		}
		span := 0
		for _, p := range snap.Points {
			span += p.Span
		}
		if span != snap.Rounds {
			t.Errorf("%s: point spans cover %d rounds, want %d", key, span, snap.Rounds)
		}
	}
	refines := func(key string) float64 {
		return ser.Window(key, 0, func(p wsnq.SeriesPoint) float64 { return float64(p.Refines) }).Max
	}
	if refines("HBC") < 2 {
		t.Errorf("HBC max refines/round = %g, want >= 2 (the storm the alert saw)", refines("HBC"))
	}
	if refines("IQ") > 1 {
		t.Errorf("IQ max refines/round = %g, want <= 1 (single collection per round)", refines("IQ"))
	}
}

// TestAlertLogString pins the log's line rendering.
func TestAlertLogString(t *testing.T) {
	_, alerts := stormStudy(t)
	s := alerts.Log().String()
	if !strings.Contains(s, "storm[HBC]") {
		t.Errorf("log rendering misses storm[HBC]:\n%s", s)
	}
	if strings.Contains(s, "IQ") {
		t.Errorf("log rendering mentions IQ:\n%s", s)
	}
}

// TestNewAlertsRejectsBadSpecs covers the public constructor's error
// paths.
func TestNewAlertsRejectsBadSpecs(t *testing.T) {
	if _, err := wsnq.NewAlerts(""); err == nil {
		t.Error("NewAlerts accepted an empty spec")
	}
	if _, err := wsnq.NewAlerts("watts>5"); err == nil {
		t.Error("NewAlerts accepted an unknown metric")
	}
	rules, err := wsnq.ParseAlertRules("storm; frames:mean(8)>100")
	if err != nil || len(rules) != 2 {
		t.Errorf("ParseAlertRules = %v, %v; want 2 rules", rules, err)
	}
}

// TestSeriesCollectorMatchesEventPath runs a deployment through the
// public API with a flight recorder beside the series collector and
// requires the recorded series to equal the reference fold of the
// recorded events: the integer traffic anatomy bit-exactly, the energy
// fields up to float summation order.
func TestSeriesCollectorMatchesEventPath(t *testing.T) {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 50
	cfg.Rounds = 1 << 30 // stepped manually
	cfg.Runs = 1
	cfg.Seed = 11
	sim, err := wsnq.NewSimulation(cfg, wsnq.HBC)
	if err != nil {
		t.Fatal(err)
	}
	ser := wsnq.NewSeries()
	rec := trace.NewRecorder()
	sim.SetTrace(trace.Multi(rec, (&wsnq.Observer{Series: ser}).Collector(sim, "HBC")))
	for r := 0; r < 30; r++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sim.FinishTrace()
	got := ser.Points("HBC")
	if len(got) != 30 {
		t.Fatalf("recorded %d series points, want 30", len(got))
	}
	for _, m := range simtest.Mismatches(got, simtest.FoldRounds(rec.Events())) {
		t.Error(m)
	}
}
