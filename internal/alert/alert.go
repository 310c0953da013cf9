// Package alert is a Kapacitor-inspired streaming rule engine over the
// per-round series points of internal/series. Declarative rules —
// warn/crit thresholds over windowed aggregates, rate-of-change, and
// stateful detectors for refinement storms, energy burn-rate toward
// first-node death, and quantile-error excursions — are evaluated as
// rounds stream in, producing deduplicated OK→WARN→CRIT level
// transitions.
//
// Everything is round-based and deterministic: no wall clocks, no
// goroutines; the same rule set over the same point stream yields the
// same alert log, byte for byte.
package alert

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wsnq/internal/level"
	"wsnq/internal/series"
)

// Level is an alert severity. Ordering is meaningful: OK < Warn < Crit.
type Level = level.Level

const (
	OK   = level.OK
	Warn = level.Warn
	Crit = level.Crit
)

// Rule is one declarative alert rule: aggregate Metric with Agg over a
// sliding window of Window rounds, compare the aggregate against the
// Warn (and, when HasCrit, Crit) threshold with Cmp, and alert on
// level transitions. See ParseRules for the text grammar.
type Rule struct {
	Name    string  `json:"name"`
	Metric  string  `json:"metric"`
	Agg     string  `json:"agg"`
	Window  int     `json:"window"`
	Cmp     string  `json:"cmp"`
	Warn    float64 `json:"warn"`
	Crit    float64 `json:"crit,omitempty"`
	HasCrit bool    `json:"has_crit,omitempty"`
}

// String renders the rule in the canonical parseable grammar.
func (r Rule) String() string {
	s := fmt.Sprintf("%s=%s:%s(%d)%s%g", r.Name, r.Metric, r.Agg, r.Window, r.Cmp, r.Warn)
	if r.HasCrit {
		s += fmt.Sprintf(",%g", r.Crit)
	}
	return s
}

// Metric names: the numeric per-round fields of series.Point, plus the
// derived "lifetime" metric (projected rounds until the hottest node
// exhausts the energy budget, from the HotJoules drain over the rule's
// window — a burn-rate detector, so it pairs with the < comparator).
var metrics = map[string]func(series.Point) float64{
	"frames":          func(p series.Point) float64 { return float64(p.Frames) },
	"messages":        func(p series.Point) float64 { return float64(p.Messages) },
	"joules":          func(p series.Point) float64 { return p.Joules },
	"bits":            func(p series.Point) float64 { return float64(p.Bits()) },
	"validation_bits": func(p series.Point) float64 { return float64(p.ValidationBits) },
	"refinement_bits": func(p series.Point) float64 { return float64(p.RefinementBits) },
	"shipping_bits":   func(p series.Point) float64 { return float64(p.ShippingBits) },
	"other_bits":      func(p series.Point) float64 { return float64(p.OtherBits) },
	"rank_error":      func(p series.Point) float64 { return float64(p.RankError) },
	"refines":         func(p series.Point) float64 { return float64(p.Refines) },
	"retries":         func(p series.Point) float64 { return float64(p.Retries) },
	"adapts":          func(p series.Point) float64 { return float64(p.Adapts) },
	"orphans":         func(p series.Point) float64 { return float64(p.Orphans) },
	"hot_joules":      func(p series.Point) float64 { return p.HotJoules },
	// Fault-visibility and serve-layer columns (PR 5 / the query
	// service); zero on runs without faults or an SLO tracker.
	"deficit":   func(p series.Point) float64 { return float64(p.Deficit) },
	"staleness": func(p series.Point) float64 { return float64(p.Staleness) },
	"step_ms":   func(p series.Point) float64 { return p.StepMs },
	"slo_burn":  func(p series.Point) float64 { return p.SLOBurn },
	"slo_spend": func(p series.Point) float64 { return p.SLOSpend },
	// Go runtime health columns, populated on profiled runs (an
	// attached Prof recorder); zero otherwise.
	"heap_bytes":  func(p series.Point) float64 { return float64(p.HeapLiveBytes) },
	"goroutines":  func(p series.Point) float64 { return float64(p.Goroutines) },
	"gc_pause_ms": func(p series.Point) float64 { return p.GCPauseMs },
	"alloc_bytes": func(p series.Point) float64 { return float64(p.AllocBytes) },
	"allocs":      func(p series.Point) float64 { return float64(p.AllocObjects) },
}

// metricLifetime is the derived burn-rate metric.
const metricLifetime = "lifetime"

// aggOp is a window aggregator, resolved from its name once per engine.
type aggOp uint8

const (
	aggLast aggOp = iota
	aggMean
	aggSum
	aggMax
	aggMin
	aggP95
	aggRate
	aggNz
	aggLifetime // the lifetime metric's projection, whatever the rule's Agg
)

// aggs names the window aggregators. "rate" is the per-round rate of
// change across the window (newest minus oldest over the spanned
// rounds); "nz" counts non-zero samples in the window.
var aggs = map[string]aggOp{
	"last": aggLast, "mean": aggMean, "max": aggMax, "min": aggMin,
	"sum": aggSum, "p95": aggP95, "rate": aggRate, "nz": aggNz,
}

// cmpOp is a threshold comparator, resolved from its name once per
// engine.
type cmpOp uint8

const (
	cmpGT cmpOp = iota
	cmpGE
	cmpLT
	cmpLE
)

var cmps = map[string]cmpOp{">": cmpGT, ">=": cmpGE, "<": cmpLT, "<=": cmpLE}

// exceeds applies the comparator to value vs. threshold.
func (c cmpOp) exceeds(v, threshold float64) bool {
	switch c {
	case cmpGT:
		return v > threshold
	case cmpGE:
		return v >= threshold
	case cmpLT:
		return v < threshold
	case cmpLE:
		return v <= threshold
	}
	return false
}

// op is a rule resolved for evaluation: its metric's sampler (nil for
// lifetime, which samples the HotJoules watermark), aggregator and
// comparator, so observing a point compares no strings.
type op struct {
	sample func(series.Point) float64
	agg    aggOp
	cmp    cmpOp
}

func resolve(r *Rule) op {
	o := op{sample: metrics[r.Metric], agg: aggs[r.Agg], cmp: cmps[r.Cmp]}
	if r.Metric == metricLifetime {
		o.agg = aggLifetime
	}
	return o
}

// Validate checks the rule is well-formed: known metric, aggregator
// and comparator, a positive window, and a crit threshold at least as
// extreme as warn in the comparator's direction.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule has no name")
	}
	if _, ok := metrics[r.Metric]; !ok && r.Metric != metricLifetime {
		return fmt.Errorf("alert: rule %s: unknown metric %q", r.Name, r.Metric)
	}
	if _, ok := aggs[r.Agg]; !ok {
		return fmt.Errorf("alert: rule %s: unknown aggregator %q", r.Name, r.Agg)
	}
	if _, ok := cmps[r.Cmp]; !ok {
		return fmt.Errorf("alert: rule %s: unknown comparator %q", r.Name, r.Cmp)
	}
	if r.Window < 1 {
		return fmt.Errorf("alert: rule %s: window %d < 1", r.Name, r.Window)
	}
	if math.IsNaN(r.Warn) || (r.HasCrit && math.IsNaN(r.Crit)) {
		return fmt.Errorf("alert: rule %s: a NaN threshold never compares", r.Name)
	}
	if r.HasCrit {
		lower := r.Cmp == "<" || r.Cmp == "<="
		if (lower && r.Crit > r.Warn) || (!lower && r.Crit < r.Warn) {
			return fmt.Errorf("alert: rule %s: crit %g is less extreme than warn %g for %q",
				r.Name, r.Crit, r.Warn, r.Cmp)
		}
	}
	return nil
}

// level maps an aggregate value to a level under comparator c. NaN
// (not enough data for the aggregate yet) never alerts.
func (r *Rule) level(c cmpOp, v float64) Level {
	if math.IsNaN(v) {
		return OK
	}
	if r.HasCrit && c.exceeds(v, r.Crit) {
		return Crit
	}
	if c.exceeds(v, r.Warn) {
		return Warn
	}
	return OK
}

// threshold returns the threshold that produced the given level.
func (r *Rule) threshold(l Level) float64 {
	if l == Crit {
		return r.Crit
	}
	return r.Warn
}

// Event is one alert-log entry: rule × series key transitioned from
// Prev to Level at Round with the offending aggregate Value.
type Event struct {
	Rule      string  `json:"rule"`
	Key       string  `json:"key"`
	Round     int     `json:"round"`
	Level     Level   `json:"level"`
	Prev      Level   `json:"prev"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold,omitempty"`
	Message   string  `json:"message"`
}

// State is the current standing of one rule × key pair.
type State struct {
	Rule   string  `json:"rule"`
	Key    string  `json:"key"`
	Level  Level   `json:"level"`
	Since  int     `json:"since_round"` // round the current level was entered
	Value  float64 `json:"value"`       // latest aggregate
	Rounds int     `json:"rounds"`      // points observed
}

// Engine evaluates a fixed rule set against streaming points. Safe for
// concurrent use, though the experiment engine feeds it sequentially
// for determinism.
type Engine struct {
	mu     sync.Mutex
	rules  []Rule
	ops    []op                    // each rule resolved, by rule index
	budget float64                 // per-node energy budget for the lifetime metric
	keys   map[string][]*ruleState // per key, one state per rule, by rule index
	log    level.Log[Event]
}

// ruleState is the sliding window and standing level of one rule × key.
type ruleState struct {
	win      level.Ring[float64] // the newest Window samples
	scratch  []float64           // p95 sort buffer, Window long; nil for other aggregators
	rounds   int                 // total points observed
	standing level.Standing
	value    float64
}

// NewEngine builds an engine over the given rules. Invalid rules are
// rejected. The lifetime metric needs an energy budget: SetBudget.
func NewEngine(rules ...Rule) (*Engine, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		rules: append([]Rule(nil), rules...),
		ops:   make([]op, len(rules)),
		keys:  make(map[string][]*ruleState),
	}
	for i := range e.rules {
		e.ops[i] = resolve(&e.rules[i])
	}
	return e, nil
}

// Rules returns a copy of the engine's rule set.
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rule(nil), e.rules...)
}

// SetBudget sets the per-node initial energy budget (joules) the
// lifetime metric projects against.
func (e *Engine) SetBudget(joules float64) {
	e.mu.Lock()
	e.budget = joules
	e.mu.Unlock()
}

// DefaultBudget sets the lifetime budget only when none is set yet —
// the experiment engine calls it with the study's configured per-node
// initial supply so burn-rate rules work without manual wiring.
func (e *Engine) DefaultBudget(joules float64) {
	e.mu.Lock()
	if e.budget == 0 {
		e.budget = joules
	}
	e.mu.Unlock()
}

// StartRun resets the sliding windows of every rule for key at a run
// boundary so burn rates and windows never mix two runs' samples.
// Standing levels and the log survive: an alert raised in run 3 is
// still visible while run 4 streams.
func (e *Engine) StartRun(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.keys[key] {
		st.win.Reset()
	}
}

// Observe feeds one raw span-1 point for key through every rule. It is
// the series.Sink the experiment engine attaches.
func (e *Engine) Observe(key string, p series.Point) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observe(key, p)
}

// ObserveLevels is Observe that also appends key's standing level
// under each rule, by rule index, to dst and returns it: a caller that
// reads levels after every point (the adapt controller) pays one state
// lookup per point, not one per rule.
func (e *Engine) ObserveLevels(key string, p series.Point, dst []Level) []Level {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.observe(key, p) {
		dst = append(dst, st.standing.Level)
	}
	return dst
}

// observe feeds p through every rule and returns key's states. A key's
// states are made together, in rule order, when it is first seen.
func (e *Engine) observe(key string, p series.Point) []*ruleState {
	sts, ok := e.keys[key]
	if !ok {
		sts = make([]*ruleState, len(e.rules))
		for i := range e.rules {
			w := e.rules[i].Window
			st := &ruleState{win: level.NewRing[float64](w)}
			if e.ops[i].agg == aggP95 {
				st.scratch = make([]float64, w)
			}
			sts[i] = st
		}
		e.keys[key] = sts
	}
	for i, st := range sts {
		r, o := &e.rules[i], &e.ops[i]
		sample := p.HotJoules // the lifetime metric's watermark
		if o.sample != nil {
			sample = o.sample(p)
		}
		st.win.Push(sample)
		st.rounds++

		v := e.reduce(o.agg, st)
		st.value = v
		lvl := r.level(o.cmp, v)
		if prev, changed := st.standing.Set(lvl, p.Round); changed {
			ev := Event{
				Rule: r.Name, Key: key, Round: p.Round,
				Level: lvl, Prev: prev, Value: sanitize(v),
			}
			if lvl > OK {
				ev.Threshold = r.threshold(lvl)
			}
			ev.Message = message(*r, ev)
			e.log.Append(ev)
		}
	}
	return sts
}

// Level returns the standing level of the first rule named rule for
// key; OK when that pair has never been observed.
func (e *Engine) Level(rule, key string) Level {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		if e.rules[i].Name == rule {
			if sts, ok := e.keys[key]; ok {
				return sts[i].standing.Level
			}
			break
		}
	}
	return OK
}

// reduce aggregates a rule's window to one value, reading it in place
// oldest first; NaN means "not enough data yet" and never alerts.
func (e *Engine) reduce(agg aggOp, st *ruleState) float64 {
	w := &st.win
	n := w.Len()
	if n == 0 {
		return math.NaN()
	}
	switch agg {
	case aggLifetime:
		return lifetime(w.At(0), w.At(n-1), n, e.budget)
	case aggLast:
		return w.At(n - 1)
	case aggMean, aggSum:
		s := 0.0
		for i := 0; i < n; i++ {
			s += w.At(i)
		}
		if agg == aggMean {
			return s / float64(n)
		}
		return s
	case aggMax:
		m := w.At(0)
		for i := 1; i < n; i++ {
			if v := w.At(i); v > m {
				m = v
			}
		}
		return m
	case aggMin:
		m := w.At(0)
		for i := 1; i < n; i++ {
			if v := w.At(i); v < m {
				m = v
			}
		}
		return m
	case aggP95:
		// Nearest-rank p95, the mathx.QuantileFloat64 convention.
		vs := st.scratch[:n]
		for i := range vs {
			vs[i] = w.At(i)
		}
		sort.Float64s(vs)
		return vs[(95*n+99)/100-1] // ceil(0.95 n)
	case aggRate:
		if n < 2 {
			return math.NaN()
		}
		return (w.At(n-1) - w.At(0)) / float64(n-1)
	case aggNz:
		c := 0.0
		for i := 0; i < n; i++ {
			if w.At(i) != 0 {
				c++
			}
		}
		return c
	}
	return math.NaN()
}

// lifetime projects rounds until the hottest node exhausts budget,
// from the first and last of the n HotJoules watermarks in the window:
// drain per round is the watermark rise across the window. Unknown
// budget, a short window, or zero drain projects +Inf (no death in
// sight; never alerts under <).
func lifetime(first, last float64, n int, budget float64) float64 {
	if budget <= 0 || n < 2 {
		return math.Inf(1)
	}
	drain := (last - first) / float64(n-1)
	if drain <= 0 {
		return math.Inf(1)
	}
	remaining := (budget - last) / drain
	if remaining < 0 {
		return 0
	}
	return remaining
}

// message renders the human-readable alert line,
//
//	name[key] level: metric:agg(window) = value cmp threshold (round r)
//	name[key] recovered: metric:agg(window) = value (round r)
//
// with the numbers formatted as fmt's %d and %g format them.
func message(r Rule, ev Event) string {
	b := make([]byte, 0, 128)
	b = append(b, r.Name...)
	b = append(b, '[')
	b = append(b, ev.Key...)
	b = append(b, "] "...)
	if ev.Level > OK {
		b = append(b, ev.Level.String()...)
	} else {
		b = append(b, "recovered"...)
	}
	b = append(b, ": "...)
	b = append(b, r.Metric...)
	b = append(b, ':')
	b = append(b, r.Agg...)
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(r.Window), 10)
	b = append(b, ") = "...)
	b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	if ev.Level > OK {
		b = append(b, ' ')
		b = append(b, r.Cmp...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, ev.Threshold, 'g', -1, 64)
	}
	b = append(b, " (round "...)
	b = strconv.AppendInt(b, int64(ev.Round), 10)
	b = append(b, ')')
	return string(b)
}

// Log is a chronological alert history.
type Log []Event

// String renders the log one message per line.
func (l Log) String() string {
	var b strings.Builder
	for _, ev := range l {
		b.WriteString(ev.Message)
		b.WriteByte('\n')
	}
	return b.String()
}

// Log returns a copy of the alert log, oldest first.
func (e *Engine) Log() Log {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.All()
}

// LogSince returns the events that fired after an absolute cursor —
// the value a previous call returned as next (0 reads from the
// beginning) — and the new cursor to resume from (level.Log.Since).
// Streaming consumers (the serve layer's per-round subscription
// updates) poll it instead of re-copying the whole log.
func (e *Engine) LogSince(cursor int) (events []Event, next int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Since(cursor)
}

// Dropped reports how many old events the bounded log has discarded.
func (e *Engine) Dropped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Dropped()
}

// States returns the standing level of every rule × key pair, sorted
// by rule order then key.
func (e *Engine) States() []State {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.keys))
	for key := range e.keys {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]State, 0, len(e.rules)*len(keys))
	for i := range e.rules {
		for _, key := range keys {
			st := e.keys[key][i]
			out = append(out, State{
				Rule: e.rules[i].Name, Key: key,
				Level: st.standing.Level, Since: st.standing.Since, Value: sanitize(st.value), Rounds: st.rounds,
			})
		}
	}
	return out
}

// sanitize makes aggregates JSON-encodable: a not-enough-data NaN
// becomes 0 and a no-death-in-sight +Inf lifetime becomes -1 (the
// "no projection" convention the telemetry health report also uses).
func sanitize(v float64) float64 {
	switch {
	case math.IsNaN(v), math.IsInf(v, -1):
		return 0
	case math.IsInf(v, 1):
		return -1
	}
	return v
}
