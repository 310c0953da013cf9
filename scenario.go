package wsnq

import (
	"context"
	"io"

	"wsnq/internal/scenario"
)

// This file is the public face of the scenario layer
// (internal/scenario): declarative scenario files composing a full
// experiment — topology, data source, algorithm line-up, fault plan,
// ARQ, alert rules, an optional sweep axis — plus the record/replay
// engine that captures a run's per-round streams to JSONL and replays
// them offline, bit-identically, without re-simulating. Golden
// scenarios under testdata/scenarios are the repo's integration-test
// currency; see the README's "Scenarios" section for the file format
// and DESIGN.md §4h for the recording format.

// Scenario is one parsed, validated scenario file. Build it with
// ParseScenario; String renders the canonical form (defaults
// materialized, fixed key order) whose SHA-256 is the scenario's
// content identity.
type Scenario struct {
	s *scenario.Scenario
}

// ParseScenario parses a scenario file: one "key value" clause per
// line, '#' full-line comments, every key optional (defaults: a
// 60-node deployment running IQ for 25 rounds). See the package
// documentation of internal/scenario for the complete grammar.
func ParseScenario(src string) (*Scenario, error) {
	s, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Scenario{s: s}, nil
}

// String renders the canonical scenario text: every key in fixed order
// with defaults materialized. ParseScenario(sc.String()) reproduces sc
// exactly.
func (sc *Scenario) String() string { return sc.s.String() }

// Name returns the scenario's display name.
func (sc *Scenario) Name() string { return sc.s.Name }

// Hash returns the SHA-256 hex digest of the canonical text — the
// content identity embedded in recording headers and verified on
// replay.
func (sc *Scenario) Hash() string { return sc.s.Hash() }

// Algorithms returns the scenario's algorithm line-up in file order.
func (sc *Scenario) Algorithms() []Algorithm {
	out := make([]Algorithm, len(sc.s.Algorithms))
	for i, a := range sc.s.Algorithms {
		out[i] = Algorithm(a)
	}
	return out
}

// Nodes returns the deployment size |N|.
func (sc *Scenario) Nodes() int { return sc.s.Nodes }

// Rounds returns the measured rounds per run.
func (sc *Scenario) Rounds() int { return sc.s.Rounds }

// Runs returns the independent simulation runs.
func (sc *Scenario) Runs() int { return sc.s.Runs }

// Phi returns the quantile fraction φ.
func (sc *Scenario) Phi() float64 { return sc.s.Phi }

// AlertRules renders the scenario's alert rules in the ParseAlertRules
// grammar ("" when it has none).
func (sc *Scenario) AlertRules() string { return sc.s.AlertSpec() }

// SLOSpecs renders the scenario's SLO declarations in the
// ParseSLOSpecs grammar ("" when it has none).
func (sc *Scenario) SLOSpecs() string { return sc.s.SLOSpec() }

// AdaptPolicies renders the scenario's closed-loop adaptation policies
// in the Controller grammar ("" when it has none).
func (sc *Scenario) AdaptPolicies() string { return sc.s.AdaptSpec() }

// ScenarioVerdict is one round's root decision in a scenario outcome:
// the reported quantile, the queried rank, and the rank error, paired
// with the series key and round index.
type ScenarioVerdict = scenario.Verdict

// ScenarioOutcome is the result of running or replaying a scenario:
// the full per-round series, the alert log, and the verdict stream.
// Hash digests exactly the replay-invariant state, so a live run and a
// replay of its recording hash identically.
type ScenarioOutcome struct {
	out *scenario.Outcome
}

// Hash returns the SHA-256 hex digest of the outcome's replayable
// state (series snapshots in key order, alert log, verdicts, scenario
// identity). The golden scenario tests pin these.
func (o *ScenarioOutcome) Hash() string { return o.out.Hash() }

// Replayed reports whether the outcome came from ReplayRecording
// rather than a live run.
func (o *ScenarioOutcome) Replayed() bool { return o.out.Replayed }

// Series returns every recorded series keyed "algorithm" (or
// "label/algorithm" inside sweeps).
func (o *ScenarioOutcome) Series() map[string]SeriesSnapshot { return o.out.Series }

// Alerts returns the chronological alert log.
func (o *ScenarioOutcome) Alerts() AlertLog { return o.out.Alerts }

// Verdicts returns the per-round root decisions in stream order.
func (o *ScenarioOutcome) Verdicts() []ScenarioVerdict { return o.out.Verdicts }

// SLO returns the final budget status of every declared objective ×
// key (empty when the scenario declares none).
func (o *ScenarioOutcome) SLO() []SLOStatus { return o.out.SLO }

// SLOEvents returns the chronological burn-rate transition log, each
// event carrying the exemplar round span that tripped it.
func (o *ScenarioOutcome) SLOEvents() []SLOEvent { return o.out.SLOEvents }

// AdaptDecisions returns the closed-loop controller's decision log in
// run order (empty when the scenario declares no adapt policies).
// Replay re-derives it bit-identically from the recorded point stream,
// so the log is covered by Hash.
func (o *ScenarioOutcome) AdaptDecisions() []AdaptDecision { return o.out.Adapts }

// Metrics returns the averaged study metrics per series key. Empty for
// replayed outcomes: replay reconstructs streams, not simulator
// aggregates, which is also why Hash excludes metrics. The map is the
// outcome's own, as in Series: treat it as read-only.
func (o *ScenarioOutcome) Metrics() map[string]Metrics { return o.out.Metrics }

// RunScenario executes the scenario live on the experiment engine:
// every algorithm of the line-up over every run (and sweep cell), with
// the fault plan, ARQ, and alert rules attached.
func RunScenario(ctx context.Context, sc *Scenario) (*ScenarioOutcome, error) {
	out, err := scenario.Run(ctx, sc.s)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{out: out}, nil
}

// RecordScenario executes the scenario live and streams a replayable
// JSONL recording to w: a self-describing header embedding the
// canonical scenario text and its hash, then one record per round.
// ReplayRecording reconstructs the identical outcome from that stream.
// The writer is not flushed or closed; wrap a *bufio.Writer and flush
// it after the call returns.
func RecordScenario(ctx context.Context, sc *Scenario, w io.Writer) (*ScenarioOutcome, error) {
	out, err := scenario.Record(ctx, sc.s, w)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{out: out}, nil
}

// ReplayRecording streams a RecordScenario recording back through the
// series and alert pipeline offline — no simulation, orders of
// magnitude faster than live — and returns an outcome bit-identical to
// the recorded run's: same series snapshots, same alert transitions,
// same verdicts, same Hash. The embedded scenario header is verified
// (format, version, canonical text, content hash) before any replaying.
func ReplayRecording(r io.Reader) (*ScenarioOutcome, error) {
	out, err := scenario.Replay(r)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{out: out}, nil
}

// ReplayWindow replays only the recorded rounds in [from, to] through
// fresh alert and SLO state — the exemplar debugging mode behind
// `wsnq-sim -replay -replay-window FROM:TO`. An SLOEvent's exemplar
// names the round span that tripped a burn-rate transition; replaying
// just that span shows how the windows filled without the healthy
// rounds around it. Unlike ReplayRecording the outcome is not
// hash-comparable to the live run: the series rebases to round 0 and
// the alert/SLO windows start cold at the window's edge.
func ReplayWindow(r io.Reader, from, to int) (*ScenarioOutcome, error) {
	out, err := scenario.ReplayWindow(r, from, to)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{out: out}, nil
}

// NewScenarioSimulation assembles a round-by-round Simulation from the
// scenario's deployment, data source, fault plan, and ARQ
// configuration — the interactive counterpart of RunScenario, for
// visualization and custom metrics. alg selects one of the scenario's
// algorithms ("" uses the first of the line-up). Sweeps do not apply
// to a single simulation; the base configuration is used.
func NewScenarioSimulation(sc *Scenario, alg Algorithm) (*Simulation, error) {
	if alg == "" {
		alg = Algorithm(sc.s.Algorithms[0])
	}
	icfg, err := sc.s.Config()
	if err != nil {
		return nil, err
	}
	return newSimulation(icfg, alg, sc.s.Faults, sc.s.ARQ)
}

// AddFleetScenario builds one shared deployment from the scenario's
// topology and data source and registers it under name, like AddFleet
// from a Config. The scenario's fault plan and ARQ configuration carry
// into the fleet: every query on it attaches them with run 0's fault
// seed, exactly as NewScenarioSimulation does. The scenario's algorithm
// line-up, alert rules, and adaptation policies are not applied —
// queries bring their own.
func (s *Server) AddFleetScenario(name string, sc *Scenario) error {
	icfg, err := sc.s.Config()
	if err != nil {
		return err
	}
	_, err = s.reg.AddFaultyFleet(name, icfg, sc.s.Faults, sc.s.ARQ)
	return err
}
