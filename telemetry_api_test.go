package wsnq

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWithTelemetry runs a small comparison with a live telemetry sink
// attached and checks both surfaces: the engine metrics registry and
// the health analyzer's report.
func TestWithTelemetry(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 2
	tel := NewTelemetry()
	algs := []Algorithm{TAG, IQ}
	if _, err := CompareContext(context.Background(), cfg, algs, WithObserver(&Observer{Telemetry: tel})); err != nil {
		t.Fatal(err)
	}

	snap := tel.Metrics()
	total := int64(len(algs) * cfg.Runs)
	if got := snap.Counters["engine.jobs_done"]; got != total {
		t.Errorf("engine.jobs_done = %d, want %d", got, total)
	}
	if got := snap.Histograms["sim.max_node_j_per_round"].Count; got != total {
		t.Errorf("sim.max_node_j_per_round count = %d, want %d", got, total)
	}

	rep := tel.Health()
	if rep.Nodes != cfg.Nodes {
		t.Errorf("health nodes = %d, want %d", rep.Nodes, cfg.Nodes)
	}
	// Two algorithms × two runs × 30 rounds each.
	if want := len(algs) * cfg.Runs * cfg.Rounds; rep.Rounds != want {
		t.Errorf("health rounds = %d, want %d", rep.Rounds, want)
	}
	if rep.JainEnergy <= 0 || rep.JainEnergy > 1 {
		t.Errorf("Jain energy = %v, want (0,1]", rep.JainEnergy)
	}
	if len(rep.Hotspots) == 0 {
		t.Error("no hotspots reported for a real study")
	}
	if rep.Lifetime.ProjectedRounds <= 0 {
		t.Errorf("projected lifetime = %v, want > 0", rep.Lifetime.ProjectedRounds)
	}
	// Lifetime projection must agree with the default budget and the
	// reported hottest drain.
	want := DefaultEnergy().InitialBudget / rep.Lifetime.MaxDrainPerRound
	if got := rep.Lifetime.ProjectedRounds; got != want {
		t.Errorf("projected lifetime = %v, want %v", got, want)
	}
	if len(rep.PerNode) != cfg.Nodes {
		t.Errorf("per-node loads = %d, want %d", len(rep.PerNode), cfg.Nodes)
	}
}

// TestTelemetryServe drives the live HTTP surface end to end: run a
// study with telemetry attached, then read /metrics and /health through
// the observer's handler on a test server.
func TestTelemetryServe(t *testing.T) {
	tel := NewTelemetry()
	ob := &Observer{Telemetry: tel}
	srv := httptest.NewServer(ob.Handler())
	defer srv.Close()
	cfg := quickCfg()
	if _, err := Run(cfg, IQ, WithObserver(ob)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}

	var snap TelemetrySnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["engine.jobs_done"] != int64(cfg.Runs) {
		t.Errorf("served jobs_done = %d, want %d", snap.Counters["engine.jobs_done"], cfg.Runs)
	}
	var rep HealthReport
	if err := json.Unmarshal(get("/health"), &rep); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if rep.Nodes != cfg.Nodes {
		t.Errorf("served health nodes = %d, want %d", rep.Nodes, cfg.Nodes)
	}
	get("/debug/pprof/")
}

// TestWithTelemetryAndTrace checks that a telemetry sink composes with
// an explicit trace collector attached by an earlier observer: both
// must see the event stream.
func TestWithTelemetryAndTrace(t *testing.T) {
	cfg := quickCfg()
	tel := NewTelemetry()
	var events int
	collector := collectorFunc(func(TraceEvent) { events++ })
	if _, err := Run(cfg, TAG, WithObserver(&Observer{Trace: collector}), WithObserver(&Observer{Telemetry: tel})); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("explicit trace collector saw no events")
	}
	if rep := tel.Health(); rep.Rounds != cfg.Rounds {
		t.Errorf("health rounds = %d, want %d", rep.Rounds, cfg.Rounds)
	}
}

type collectorFunc func(TraceEvent)

func (f collectorFunc) Collect(e TraceEvent) { f(e) }

// TestObserverHandler checks that every bundled sink answers on its
// endpoints and that an absent sink answers 404: /series and /dashboard
// follow Series, /alerts Alerts, /profilez Prof, /slo SLO, and
// /metrics and /health Telemetry.
func TestObserverHandler(t *testing.T) {
	alerts, err := NewAlerts("storm")
	if err != nil {
		t.Fatal(err)
	}
	slos, err := NewSLOs("rank")
	if err != nil {
		t.Fatal(err)
	}
	full := func() *Observer {
		return &Observer{Series: NewSeries(), Alerts: alerts, Prof: NewProf(), SLO: slos}
	}
	endpoints := map[string]func(*Observer) bool{
		"/series":    func(ob *Observer) bool { return ob.Series != nil },
		"/dashboard": func(ob *Observer) bool { return ob.Series != nil },
		"/alerts":    func(ob *Observer) bool { return ob.Alerts != nil },
		"/profilez":  func(ob *Observer) bool { return ob.Prof != nil },
		"/slo":       func(ob *Observer) bool { return ob.SLO != nil },
		"/metrics":   func(ob *Observer) bool { return ob.Telemetry != nil },
		"/health":    func(ob *Observer) bool { return ob.Telemetry != nil },
	}
	cases := []struct {
		name string
		ob   func() *Observer
	}{
		{"empty", func() *Observer { return &Observer{} }},
		{"telemetry only", func() *Observer { return &Observer{Telemetry: NewTelemetry()} }},
		{"sinks without telemetry", full},
		{"sinks with telemetry", func() *Observer { ob := full(); ob.Telemetry = NewTelemetry(); return ob }},
		{"series only", func() *Observer { return &Observer{Series: NewSeries()} }},
		{"alerts and slo with telemetry", func() *Observer {
			return &Observer{Telemetry: NewTelemetry(), Alerts: alerts, SLO: slos}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ob := tc.ob()
			srv := httptest.NewServer(ob.Handler())
			defer srv.Close()
			for path, live := range endpoints {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				resp.Body.Close()
				want := http.StatusNotFound
				if live(ob) {
					want = http.StatusOK
				}
				if resp.StatusCode != want {
					t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
				}
			}
		})
	}
}
