package wsnq

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"wsnq/internal/serve"
)

// serveTestConfig is the shared 60-node fleet the server tests run on.
func serveTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 60
	cfg.Area = 80
	cfg.RadioRange = 25
	cfg.Rounds = 1 << 20 // driven by the server clock
	cfg.Runs = 1
	return cfg
}

// TestServeDeterminism is the differential guarantee behind AddFleet's
// doc: a query hosted by the server computes bit-identical per-round
// answers to a standalone Simulation built from the same config —
// multiplexing many queries over one shared deployment changes
// scheduling, never results.
func TestServeDeterminism(t *testing.T) {
	const rounds = 12
	cfg := serveTestConfig()

	for _, alg := range []Algorithm{HBC, IQ} {
		for _, phi := range []float64{0.25, 0.9} {
			// Standalone reference: same config, φ applied directly.
			ref := cfg
			ref.Phi = phi
			sim, err := NewSimulation(ref, alg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]RoundResult, rounds)
			for i := range want {
				if want[i], err = sim.Step(); err != nil {
					t.Fatal(err)
				}
			}

			// Server-hosted: the fleet carries the base config; the
			// query overrides φ. Other queries sharing the fleet must
			// not perturb it.
			srv := NewServer(ServerConfig{})
			if err := srv.AddFleet("fleet0", cfg); err != nil {
				t.Fatal(err)
			}
			id, err := srv.Register(QuerySpec{Fleet: "fleet0", Phi: phi, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range []float64{0.1, 0.5, 0.75} {
				if _, err := srv.Register(QuerySpec{Fleet: "fleet0", Phi: other, Algorithm: IQ}); err != nil {
					t.Fatal(err)
				}
			}
			updates, cancel, err := srv.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			for i := 0; i < rounds; i++ {
				srv.Advance()
			}
			for i := 0; i < rounds; i++ {
				u := <-updates
				if u.Failed != "" {
					t.Fatalf("%s φ=%v round %d failed: %s", alg, phi, i, u.Failed)
				}
				if u.Round != want[i].Round || u.Quantile != want[i].Quantile || u.Oracle != want[i].Oracle {
					t.Fatalf("%s φ=%v round %d: server (round=%d q=%d oracle=%d) != standalone (round=%d q=%d oracle=%d)",
						alg, phi, i, u.Round, u.Quantile, u.Oracle, want[i].Round, want[i].Quantile, want[i].Oracle)
				}
				// Degraded-answer stamping (PR 5 semantics) must agree
				// with the standalone RoundResult too: on this healthy
				// fleet both sides report full coverage, zero staleness,
				// and no unreachable sensors.
				if u.Degraded != want[i].Degraded || u.Staleness != want[i].Staleness {
					t.Fatalf("%s φ=%v round %d: server degraded=%v staleness=%d != standalone degraded=%v staleness=%d",
						alg, phi, i, u.Degraded, u.Staleness, want[i].Degraded, want[i].Staleness)
				}
				if u.Missing != 0 {
					t.Fatalf("%s φ=%v round %d: %d sensors missing on a fault-free fleet", alg, phi, i, u.Missing)
				}
			}
		}
	}
}

// TestServeQueryState verifies that a query's observability state is
// its own: two queries with the same alert rules on one fleet each
// report series stats and a storm-rule state under their own series
// key only, with no entry from the other query.
func TestServeQueryState(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if err := srv.AddFleet("fleet0", serveTestConfig()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := srv.Register(QuerySpec{Fleet: "fleet0", Algorithm: IQ, AlertRules: "storm"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 6; i++ {
		srv.Advance()
	}
	for _, id := range ids {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds == 0 || st.Stats["rank_error"].Points == 0 {
			t.Fatalf("%s: status has no series state: %+v", id, st)
		}
		if len(st.Alerts) != 1 {
			t.Fatalf("%s: %d alert states, want the storm rule on its own key: %+v", id, len(st.Alerts), st.Alerts)
		}
		if a := st.Alerts[0]; a.Rule != "storm" || a.Key != id+"/IQ" || a.Rounds == 0 {
			t.Fatalf("%s: alert state %+v, want rule storm on key %s/IQ with rounds observed", id, a, id)
		}
	}
}

// TestServeFallThroughServesOnlyFedEndpoints pins the server's fixed
// fall-through surface: /metrics serves the process runtime gauges and
// /debug/pprof the runtime profiles; hosted queries keep their series,
// alerts and objectives private, so /health, /series, /dashboard and
// /alerts answer 404 however many rounds ran; /profilez answers only
// with ServerConfig.Prof set; and GET /slo is the registry's per-query
// view, not the telemetry surface's.
func TestServeFallThroughServesOnlyFedEndpoints(t *testing.T) {
	get := func(t *testing.T, h http.Handler, want map[string]int) {
		t.Helper()
		ts := httptest.NewServer(h)
		defer ts.Close()
		for path, code := range want {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != code {
				t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, code)
			}
		}
	}
	run := func(t *testing.T, cfg ServerConfig) *Server {
		t.Helper()
		srv := NewServer(cfg)
		if err := srv.AddFleet("fleet0", serveTestConfig()); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Register(QuerySpec{ID: "q", Fleet: "fleet0", Algorithm: IQ, AlertRules: "storm", SLO: "rank"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			srv.Advance()
		}
		return srv
	}

	srv := run(t, ServerConfig{})
	get(t, srv.Handler(), map[string]int{
		"/metrics":      http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/health":       http.StatusNotFound,
		"/series":       http.StatusNotFound,
		"/dashboard":    http.StatusNotFound,
		"/alerts":       http.StatusNotFound,
		"/profilez":     http.StatusNotFound,
	})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slos []serve.QuerySLO
	if err := json.NewDecoder(resp.Body).Decode(&slos); err != nil {
		t.Fatalf("GET /slo is not the registry's per-query list: %v", err)
	}
	if len(slos) != 1 || slos[0].Query != "q" || len(slos[0].Statuses) == 0 {
		t.Fatalf("GET /slo = %+v, want query q's objective statuses", slos)
	}

	get(t, run(t, ServerConfig{Prof: NewProf()}).Handler(), map[string]int{"/profilez": http.StatusOK})
}

// TestServeLoadSmoke is the `make serve` capacity gate: 1,000
// concurrent queries multiplexed over one shared 60-node deployment,
// driven through the real HTTP surface by the load harness. It
// asserts nonzero sustained registration and answer throughput, zero
// dropped subscriber answers under quota, and that the per-query
// series stores engaged their downsampling (bounded memory however
// long the queries live).
func TestServeLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short mode")
	}
	const (
		queries = 1000
		rounds  = 24
	)
	srv := NewServer(ServerConfig{
		MaxQueries:       queries,
		SeriesCapacity:   8,      // tiny on purpose: forces stride-doubling within the run
		SubscriberBuffer: rounds, // a subscriber that never lags loses nothing
	})
	if err := srv.AddFleet("fleet0", serveTestConfig()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	report, err := serve.RunLoad(context.Background(), srv, ts.URL, serve.LoadConfig{
		Queries: queries,
		Rounds:  rounds,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report)
	if report.Registered != queries {
		t.Fatalf("registered %d/%d (rejected %d)", report.Registered, queries, report.Rejected)
	}
	if report.RegisterPerSec <= 0 || report.AnswersPerSec <= 0 {
		t.Fatalf("no sustained throughput: %+v", report)
	}
	if report.Rounds != rounds {
		t.Fatalf("clock drove %d rounds, want %d", report.Rounds, rounds)
	}
	if report.Dropped != 0 {
		t.Fatalf("%d answers dropped under quota (buffer %d ≥ rounds %d)", report.Dropped, rounds, rounds)
	}
	if report.Updates == 0 {
		t.Fatal("subscriber streams saw no updates")
	}

	// Bounded memory: capacity 8 over 24 rounds must have downsampled.
	st, err := srv.Status("load0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stride < 2 {
		t.Fatalf("series stride %d after %d rounds at capacity 8: downsampling never engaged", st.Stride, rounds)
	}
	if u, ok := srv.Latest("load0"); !ok || u.Quantile == 0 {
		t.Fatalf("hot query has no answer: %+v", u)
	}
}
