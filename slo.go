package wsnq

import "wsnq/internal/slo"

// This file is the public face of the SLO layer (internal/slo):
// declarative service-level objectives over the signals the serving
// and observability layers already produce — rank-error accuracy,
// answer freshness, and per-round answer latency — each with a
// rolling compliance window, an error-budget ledger, and multi-window
// burn-rate evaluation in the Google-SRE style. Attach objectives to
// a served query (QuerySpec.SLO), a whole server (ServerConfig.SLO),
// a live simulation (Observer.SLO), or a scenario file ("slo" key);
// read budget status from QueryStatus.SLO, GET /slo, the telemetry
// dashboard, or ScenarioOutcome.SLO. See DESIGN.md §4j.

// SLOSpec is one declarative objective: a signal, a target compliance
// fraction over a rolling window, and the fast/slow burn-rate windows
// and thresholds that grade it. Build specs with ParseSLOSpecs.
type SLOSpec = slo.Spec

// SLOStatus is the standing budget state of one objective × key pair:
// rounds observed, bad rounds, budget spend fraction, and the fast,
// slow, and combined burn rates behind the current level.
type SLOStatus = slo.Status

// SLOEvent is one burn-rate level transition, carrying the budget
// arithmetic at the transition and — above OK — an exemplar naming
// the offending round span and its recording line offset, so
// `wsnq-sim -replay -replay-window` can re-drive it offline.
type SLOEvent = slo.Event

// SLOExemplar names the round window (and, for recorded scenarios,
// the recording line offset) that tripped a burn-rate transition.
type SLOExemplar = slo.Exemplar

// SLOSample is one round's raw SLO signals for Observe: rank error
// and population for the accuracy signal, degraded/staleness flags
// for freshness, and the round's answer latency.
type SLOSample = slo.Sample

// SLOLevel is an SLO severity; ordering is meaningful
// (SLOOK < SLOWarn < SLOCrit).
type SLOLevel = slo.Level

// SLO severities.
const (
	SLOOK   = slo.OK
	SLOWarn = slo.Warn
	SLOCrit = slo.Crit
)

// ParseSLOSpecs parses a semicolon-separated SLO spec list without
// building a tracker — useful for validating a -slo flag. The grammar
// (DESIGN.md §4j):
//
//	spec   = signal { " " key "=" value }
//	signal = rank | fresh | latency
//	key    = name | objective | window | fast | slow | warn | crit |
//	         epsilon (rank) | stale (fresh) | ms (latency)
//
// Example: "rank objective=0.99 window=512; latency ms=25 warn=4".
// Every key is optional; the defaults fill the rest (objective 0.99 —
// fresh 0.95 — window 512, fast 8, slow 64, warn burn 6, crit burn
// 14.4).
func ParseSLOSpecs(spec string) ([]SLOSpec, error) {
	return slo.ParseSpecs(spec)
}

// SLOSampleFromPoint derives one round's SLO sample from a recorded
// series point: rank error and per-round latency read off the point,
// freshness from its coverage-deficit and staleness columns. n is the
// population |N| the rank objective's εN tolerance scales against;
// offset (0 if unknown) stamps exemplars with a recording line.
func SLOSampleFromPoint(p SeriesPoint, n int, offset int64) SLOSample {
	return slo.SampleFromPoint(p, n, offset)
}

// SLOs is a tracker evaluating declarative objectives as rounds
// complete: each Observe classifies the round against every spec,
// advances the rolling windows and the error-budget ledger, and logs
// deduplicated OK→WARN→CRIT burn-rate transitions with exemplars.
// Build it from the spec grammar (ParseSLOSpecs) and attach it to a
// live simulation via Observer.SLO (served queries build their own
// from QuerySpec.SLO); read Statuses and Log at any time, including
// while the source runs. Safe for concurrent use.
type SLOs = slo.Tracker

// NewSLOs builds an SLO tracker from a semicolon-separated spec list,
// e.g. "rank; fresh objective=0.9" — see ParseSLOSpecs.
func NewSLOs(spec string) (*SLOs, error) {
	specs, err := slo.ParseSpecs(spec)
	if err != nil {
		return nil, err
	}
	return slo.NewTracker(specs...)
}
