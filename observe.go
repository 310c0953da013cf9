package wsnq

import (
	"fmt"

	"wsnq/internal/alert"
	"wsnq/internal/energy"
	"wsnq/internal/series"
)

// This file is the public face of the streaming-observability layer:
// per-round time series (internal/series) and the alert rule engine
// (internal/alert), exported as aliases of their engines. Bundle them
// in an Observer to attach them to a study (WithObserver), a live
// Simulation (Observer.Collector), or the HTTP surface
// (Observer.Handler).

// SeriesPoint is one per-round (or, after downsampling, per-span)
// sample of a study's time series: frames, messages, joules, the
// decision's absolute rank error, refinement requests, the per-phase
// wire-bit anatomy, and the hottest node's cumulative drain.
type SeriesPoint = series.Point

// SeriesSnapshot is the exported state of one series key: the sampling
// stride (rounds per point), total rounds ingested, and the points.
type SeriesSnapshot = series.Snapshot

// SeriesWindowStats summarizes a sliding window of series points:
// mean, max, and nearest-rank p95.
type SeriesWindowStats = series.WindowStats

// Series records a bounded per-round time series for every algorithm
// of a study (keyed "algorithm" or "cell/algorithm" inside sweeps).
// Memory stays fixed: past the capacity, adjacent points merge and the
// sampling stride doubles. Safe for concurrent reads while a study
// runs; a live Simulation records into it through Observer.Collector.
type Series = series.Store

// NewSeries returns an empty time-series store with the default
// per-key capacity (512 points).
func NewSeries() *Series { return series.New(0) }

// AlertLevel is an alert severity; ordering is meaningful
// (AlertOK < AlertWarn < AlertCrit).
type AlertLevel = alert.Level

// Alert severities.
const (
	AlertOK   = alert.OK
	AlertWarn = alert.Warn
	AlertCrit = alert.Crit
)

// AlertRule is one declarative streaming rule: a windowed aggregate of
// a series metric compared against warn/crit thresholds.
type AlertRule = alert.Rule

// AlertEvent is one alert-log entry: a rule × key level transition
// with the offending aggregate value.
type AlertEvent = alert.Event

// AlertState is the standing level of one rule × key pair.
type AlertState = alert.State

// AlertLog is the chronological alert history of a study; its String
// renders one message per line.
type AlertLog = alert.Log

// Alerts is a streaming alert engine evaluating declarative rules as
// study rounds complete, producing deduplicated OK→WARN→CRIT level
// transitions. Build it from the rule grammar (see ParseAlertRules for
// the syntax and the built-in presets) and attach it as
// Observer.Alerts; read the outcome via Log and States at any time,
// including while the study runs. SetBudget overrides the per-node
// energy budget (joules) burn-rate rules project against.
type Alerts = alert.Engine

// NewAlerts builds an alert engine from a semicolon-separated rule
// spec, e.g. "storm; joules:mean(16)>2e-4" — see ParseAlertRules.
// Burn-rate (lifetime) rules project against the study's configured
// energy budget; the default is DefaultConfig's.
func NewAlerts(rules string) (*Alerts, error) {
	rs, err := alert.ParseRules(rules)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("wsnq: empty alert rule spec")
	}
	eng, err := alert.NewEngine(rs...)
	if err != nil {
		return nil, err
	}
	eng.DefaultBudget(energy.DefaultParams().InitialBudget)
	return eng, nil
}

// ParseAlertRules parses a semicolon-separated alert rule list without
// building an engine — useful for validating a -alert flag. The
// grammar (whitespace-free around tokens; DESIGN.md §4e):
//
//	rule   = preset | [ name "=" ] expr
//	expr   = metric [ ":" agg "(" window ")" ] cmp warn [ "," crit ]
//	metric = frames | messages | joules | bits | validation_bits |
//	         refinement_bits | shipping_bits | other_bits |
//	         rank_error | refines | retries | orphans |
//	         hot_joules | lifetime | heap_bytes | goroutines |
//	         gc_pause_ms | alloc_bytes | allocs
//	agg    = last | mean | max | min | sum | p95 | rate | nz
//	cmp    = ">" | ">=" | "<" | "<="
//	preset = storm | burnrate | excursion | orphan | gc | heap
func ParseAlertRules(spec string) ([]AlertRule, error) {
	return alert.ParseRules(spec)
}
