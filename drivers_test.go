package wsnq

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wsnq/internal/adapt"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// driverRound is one round as a driver reports it. Joules and Frames
// are cumulative.
type driverRound struct {
	Quantile, Oracle, RankErr int
	Degraded                  bool
	Staleness                 int
	Reinit                    bool
	Joules                    float64
	Frames                    int
}

// driverCase is one configuration every driver runs: the engine's
// run 0 from cfg (faults, ARQ, and adaptation policies as engine
// options), the Simulation newSim builds, and one query served on the
// fleet addFleet registers as "f".
type driverCase struct {
	cfg      experiment.Config
	alg      Algorithm
	faults   *fault.Plan
	arq      *sim.ARQConfig
	adapt    string
	newSim   func() (*Simulation, error)
	addFleet func(*Server) error
}

// TestDriversAgree is the three-way differential behind the one round
// driver: the batch engine's run 0, a round-by-round Simulation, and a
// served query of the same configuration and seed must report the
// same rounds — answer, oracle, degraded status, staleness, reinit
// replays, cumulative joules and frames — and the same adaptation
// decisions. The grid provokes loss desyncs; the golden scenarios add
// crash recovery, heavy multi-value loss, and the closed-loop
// controller.
func TestDriversAgree(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		for _, alg := range []Algorithm{IQ, POS, HBC} {
			for _, loss := range []float64{0.05, 0.2} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := serveTestConfig()
					cfg.Rounds, cfg.Seed, cfg.LossProb = 30, seed, loss
					icfg, err := cfg.toInternal()
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("%s/loss=%v/seed=%d", alg, loss, seed), func(t *testing.T) {
						checkDriversAgree(t, driverCase{
							cfg: icfg, alg: alg,
							newSim:   func() (*Simulation, error) { return NewSimulation(cfg, alg) },
							addFleet: func(s *Server) error { return s.AddFleet("f", cfg) },
						})
					})
				}
			}
		}
	})

	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.scn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden scenarios: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ParseScenario(string(src))
		if err != nil {
			t.Fatal(err)
		}
		t.Run("scenario/"+sc.Name(), func(t *testing.T) {
			out, err := RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.s.Config()
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range sc.Algorithms() {
				t.Run(string(alg), func(t *testing.T) {
					engine, decisions := checkDriversAgree(t, driverCase{
						cfg: cfg, alg: alg, faults: sc.s.Faults, arq: sc.s.ARQ, adapt: sc.AdaptPolicies(),
						newSim:   func() (*Simulation, error) { return NewScenarioSimulation(sc, alg) },
						addFleet: func(s *Server) error { return s.AddFleetScenario("f", sc) },
					})
					// The scenario's own verdicts and decision log list run 0
					// of each algorithm first.
					var verdicts []ScenarioVerdict
					for _, v := range out.Verdicts() {
						if v.Key == string(alg) {
							verdicts = append(verdicts, v)
						}
					}
					if len(verdicts) < len(engine) {
						t.Fatalf("%d verdicts for %s, want at least %d", len(verdicts), alg, len(engine))
					}
					for i, r := range engine {
						if v := verdicts[i]; v.Answer != r.Quantile || v.RankErr != r.RankErr {
							t.Fatalf("round %d: scenario verdict answer %d rank error %d, engine run 0 answer %d rank error %d",
								i, v.Answer, v.RankErr, r.Quantile, r.RankErr)
						}
					}
					var logged []string
					for _, d := range out.AdaptDecisions() {
						if d.Key == string(alg) {
							logged = append(logged, decisionString(d))
						}
					}
					if len(logged) < len(decisions) || !slices.Equal(logged[:len(decisions)], decisions) {
						t.Fatalf("scenario decision log %v does not begin with engine run 0's %v", logged, decisions)
					}
				})
			}
		})
	}
}

// checkDriversAgree runs c on all three drivers and fails on the first
// disagreement; it returns the engine's rounds and decisions.
func checkDriversAgree(t *testing.T, c driverCase) ([]driverRound, []string) {
	t.Helper()
	engine, engineDs := engineRounds(t, c)
	simRs, simDs := simulationRounds(t, c, len(engine))
	served, servedDs := servedRounds(t, c, len(engine))

	// The engine reports no oracle value; its decisions' rank error
	// pins the same ground truth.
	servedNoOracle := make([]driverRound, len(served))
	for i, r := range served {
		r.Oracle = 0
		servedNoOracle[i] = r
	}
	diffRounds(t, "engine vs serve", engine, servedNoOracle)
	diffRounds(t, "Simulation vs serve", simRs, served)
	if !slices.Equal(engineDs, simDs) || !slices.Equal(engineDs, servedDs) {
		t.Errorf("adapt decisions differ:\nengine     %v\nSimulation %v\nserve      %v", engineDs, simDs, servedDs)
	}
	reinits, degraded := 0, 0
	for _, r := range engine {
		if r.Reinit {
			reinits++
		}
		if r.Degraded {
			degraded++
		}
	}
	t.Logf("%d rounds: %d reinits, %d degraded, %d adapt decisions", len(engine), reinits, degraded, len(engineDs))
	return engine, engineDs
}

// engineRounds runs c through the batch engine (run 0 only) and
// rebuilds its rounds from the flight recorder and the series points.
func engineRounds(t *testing.T, c driverCase) ([]driverRound, []string) {
	t.Helper()
	cfg := c.cfg
	cfg.Runs = 1
	f, err := factory(c.alg)
	if err != nil {
		t.Fatal(err)
	}
	tap := &roundTap{}
	var frames []int
	total := 0
	opts := experiment.Options{
		Parallelism: 1,
		Trace:       func(experiment.TraceJob) trace.Collector { return tap },
		PointSink: func(_ string, p series.Point, _ experiment.Verdict) {
			total += p.Frames
			frames = append(frames, total)
		},
		Faults: c.faults,
		ARQ:    c.arq,
	}
	var decisions []string
	if c.adapt != "" {
		policies, err := adapt.Parse(c.adapt)
		if err != nil {
			t.Fatal(err)
		}
		opts.Adapt = &experiment.AdaptOptions{
			Policies: policies,
			Log: func(_ experiment.TraceJob, _ string, ds []adapt.Decision) {
				for _, d := range ds {
					decisions = append(decisions, decisionString(d))
				}
			},
		}
	}
	m, err := experiment.RunNamedContext(context.Background(), cfg, string(c.alg), f, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if len(tap.rounds) != cfg.Rounds || len(frames) != cfg.Rounds {
		t.Fatalf("engine: %d decisions and %d points, want %d rounds", len(tap.rounds), len(frames), cfg.Rounds)
	}
	reinits := 0
	for i := range tap.rounds {
		tap.rounds[i].Frames = frames[i]
		if tap.rounds[i].Reinit {
			reinits++
		}
	}
	if reinits != m.Reinits {
		t.Fatalf("engine: %d reinit rounds in the trace, metrics count %d", reinits, m.Reinits)
	}
	return tap.rounds, decisions
}

// simulationRounds steps c's Simulation for the given number of rounds.
func simulationRounds(t *testing.T, c driverCase, rounds int) ([]driverRound, []string) {
	t.Helper()
	s, err := c.newSim()
	if err != nil {
		t.Fatal(err)
	}
	if c.adapt != "" {
		ctl, err := NewController(c.adapt)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetController(ctl); err != nil {
			t.Fatal(err)
		}
	}
	tap := &roundTap{}
	s.SetTrace(tap)
	out := make([]driverRound, rounds)
	for i := range out {
		r, err := s.Step()
		if err != nil {
			t.Fatalf("Simulation round %d: %v", i, err)
		}
		out[i] = driverRound{
			Quantile: r.Quantile, Oracle: r.Oracle, RankErr: tap.rounds[i].RankErr,
			Degraded: r.Degraded, Staleness: r.Staleness, Reinit: r.Reinit,
			Joules: r.TotalEnergy, Frames: r.FramesSent,
		}
	}
	var decisions []string
	for _, d := range s.AdaptDecisions() {
		decisions = append(decisions, decisionString(d))
	}
	return out, decisions
}

// servedRounds hosts c as the only query of a server and advances it
// for the given number of rounds.
func servedRounds(t *testing.T, c driverCase, rounds int) ([]driverRound, []string) {
	t.Helper()
	srv := NewServer(ServerConfig{})
	if err := c.addFleet(srv); err != nil {
		t.Fatal(err)
	}
	id, err := srv.Register(QuerySpec{Fleet: "f", Algorithm: c.alg, Adapt: c.adapt})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]driverRound, rounds)
	var decisions []string
	for i := range out {
		srv.Advance()
		u, ok := srv.Latest(id)
		if !ok || u.Round != i || u.Failed != "" {
			t.Fatalf("served round %d: update %+v (ok=%v)", i, u, ok)
		}
		out[i] = driverRound{
			Quantile: u.Quantile, Oracle: u.Oracle, RankErr: u.RankError,
			Degraded: u.Degraded, Staleness: u.Staleness, Reinit: u.Reinit,
			Joules: u.Joules, Frames: u.Frames,
		}
		for _, d := range u.Adapts {
			decisions = append(decisions, decisionString(d))
		}
	}
	return out, decisions
}

// roundTap rebuilds a driver's rounds from its flight-recorder stream:
// each decision's answer and rank error (a decision in the init phase
// after round 0 is a reinit replay), the degraded tag that follows it,
// and the cumulative energy — debits re-summed per node in stream
// order, then across nodes, exactly as the ledger does.
type roundTap struct {
	spent  []float64
	rounds []driverRound
}

func (r *roundTap) Collect(e trace.Event) {
	switch e.Kind {
	case trace.KindEnergy:
		for len(r.spent) <= e.Node {
			r.spent = append(r.spent, 0)
		}
		r.spent[e.Node] += e.Joules
	case trace.KindDecision:
		total := 0.0
		for _, j := range r.spent {
			total += j
		}
		r.rounds = append(r.rounds, driverRound{
			Quantile: e.Value, RankErr: e.Err, Joules: total,
			Reinit: e.Round > 0 && e.Phase == sim.PhaseInit,
		})
	case trace.KindDegraded:
		last := &r.rounds[len(r.rounds)-1]
		last.Degraded, last.Staleness = true, e.Aux
	}
}

// diffRounds fails on the first round where got and want differ.
func diffRounds(t *testing.T, what string, got, want []driverRound) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rounds vs %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: round %d differs:\n%+v\n%+v", what, i, got[i], want[i])
			return
		}
	}
}

// decisionString renders a decision without its series key, which
// names the driver rather than the decision.
func decisionString(d adapt.Decision) string {
	s := d.String()
	return s[strings.IndexByte(s, '@'):]
}
