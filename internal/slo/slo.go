// Package slo evaluates declarative service-level objectives over the
// per-round signals the system already produces: the fraction of
// answers within the paper's εN rank bound, the fraction of rounds
// with fresh (non-degraded) coverage, and per-step answer latency.
//
// Each Spec carries an objective (the target fraction of good rounds),
// a rolling budget window that funds an error-budget ledger, and a
// Google-SRE-style multi-window burn-rate pair: a fast window that
// reacts to acute breakage and a slow window that filters blips. An
// alert fires only when BOTH windows burn above threshold, which the
// single-metric alert grammar expresses as min(burnFast, burnSlow) —
// both ≥ T exactly when the minimum is.
//
// All windows are measured in rounds, the system's unit of time, so
// evaluation is deterministic: the same round stream produces the same
// budget trajectory live, under replay, and across machines. Windows
// use a fixed denominator (they are primed with good rounds), so a
// single bad round early in a run burns exactly as much budget as one
// late in it and cold trackers never false-fire.
//
// Every level transition above OK carries an Exemplar — the round
// window that tripped it plus, when the stream is being recorded, the
// recording line offset of the first offending round — so the window
// can be re-driven offline through `wsnq-sim -replay`.
package slo

import (
	"fmt"
	"math"
	"sync"

	"wsnq/internal/level"
	"wsnq/internal/series"
)

// Signal names accepted by Spec.Signal.
const (
	SignalRank    = "rank"    // answer within the εN rank bound
	SignalFresh   = "fresh"   // full coverage, staleness within bound
	SignalLatency = "latency" // per-step answer latency within bound
)

// Level is an SLO severity. Ordering is meaningful: OK < Warn < Crit.
type Level = level.Level

const (
	OK   = level.OK
	Warn = level.Warn
	Crit = level.Crit
)

// Spec declares one service-level objective. The zero value is not
// valid; construct specs through ParseSpec or fill every field and
// call Validate.
type Spec struct {
	Name      string  `json:"name"`      // display name, defaults to the signal
	Signal    string  `json:"signal"`    // rank | fresh | latency
	Objective float64 `json:"objective"` // target good-round fraction, e.g. 0.99

	// Window is the budget window in rounds: the error budget is
	// (1-Objective)·Window bad rounds, spent as they arrive and
	// refunded as they age out.
	Window int `json:"window"`

	// FastWindow and SlowWindow are the burn-rate windows in rounds
	// (the SRE playbook's 1h/24h pair, scaled to round time).
	FastWindow int `json:"fast_window"`
	SlowWindow int `json:"slow_window"`

	// WarnBurn and CritBurn are burn-rate thresholds: a burn of 1
	// spends the budget exactly at the sustainable rate, so paging
	// thresholds sit well above it (the SRE defaults 6 and 14.4).
	WarnBurn float64 `json:"warn_burn"`
	CritBurn float64 `json:"crit_burn"`

	// Per-signal parameters; only the matching one is consulted.
	Epsilon   float64 `json:"epsilon,omitempty"`    // rank: good ⇔ rank error ≤ ε·N
	MaxStale  int     `json:"max_stale,omitempty"`  // fresh: good ⇔ not degraded and staleness ≤ bound
	LatencyMs float64 `json:"latency_ms,omitempty"` // latency: good ⇔ step latency ≤ bound (ms)
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	switch s.Signal {
	case SignalRank, SignalFresh, SignalLatency:
	default:
		return fmt.Errorf("slo: unknown signal %q (want rank, fresh, or latency)", s.Signal)
	}
	if s.Name == "" {
		return fmt.Errorf("slo: %s: empty name", s.Signal)
	}
	if !(s.Objective > 0 && s.Objective < 1) {
		return fmt.Errorf("slo: %s: objective %v outside (0, 1)", s.Name, s.Objective)
	}
	if s.Window < 1 {
		return fmt.Errorf("slo: %s: window %d < 1 round", s.Name, s.Window)
	}
	if s.FastWindow < 1 || s.SlowWindow < s.FastWindow {
		return fmt.Errorf("slo: %s: want 1 ≤ fast (%d) ≤ slow (%d)", s.Name, s.FastWindow, s.SlowWindow)
	}
	if !(s.WarnBurn > 0) || math.IsInf(s.WarnBurn, 0) {
		return fmt.Errorf("slo: %s: warn burn %v must be finite and positive", s.Name, s.WarnBurn)
	}
	if !(s.CritBurn >= s.WarnBurn) || math.IsInf(s.CritBurn, 0) {
		return fmt.Errorf("slo: %s: crit burn %v below warn %v", s.Name, s.CritBurn, s.WarnBurn)
	}
	switch s.Signal {
	case SignalRank:
		if !(s.Epsilon > 0) || math.IsInf(s.Epsilon, 0) {
			return fmt.Errorf("slo: %s: epsilon %v must be finite and positive", s.Name, s.Epsilon)
		}
	case SignalFresh:
		if s.MaxStale < 0 {
			return fmt.Errorf("slo: %s: negative staleness bound %d", s.Name, s.MaxStale)
		}
	case SignalLatency:
		if !(s.LatencyMs > 0) || math.IsInf(s.LatencyMs, 0) {
			return fmt.Errorf("slo: %s: latency bound %vms must be finite and positive", s.Name, s.LatencyMs)
		}
	}
	return nil
}

// Budget returns the error budget of the window: the number of bad
// rounds the objective tolerates per Window rounds.
func (s Spec) Budget() float64 { return (1 - s.Objective) * float64(s.Window) }

// good classifies one sample under this spec.
func (s *Spec) good(sm Sample) bool {
	switch s.Signal {
	case SignalRank:
		return float64(sm.RankError) <= s.Epsilon*float64(sm.N)
	case SignalFresh:
		return !sm.Degraded && sm.Staleness <= s.MaxStale
	case SignalLatency:
		return sm.LatencyMs <= s.LatencyMs
	}
	return true
}

// Sample is one round's worth of signal for one series key. N is the
// measurement population (nodes × values per node) that scales the εN
// bound; Offset, when nonzero, is the recording line number of the
// round record, which Exemplars carry so replay can seek to it.
type Sample struct {
	Round     int
	RankError int
	N         int
	Degraded  bool
	Staleness int
	LatencyMs float64
	Offset    int64
}

// SampleFromPoint builds a Sample from a recorded series point. The
// measurement population n is supplied by the caller (the point does
// not carry it); offset is the recording line number, or 0 when the
// stream is not being recorded.
func SampleFromPoint(p series.Point, n int, offset int64) Sample {
	return Sample{
		Round:     p.Round,
		RankError: p.RankError,
		N:         n,
		Degraded:  p.Deficit > 0,
		Staleness: p.Staleness,
		LatencyMs: p.StepMs,
		Offset:    offset,
	}
}

// Status is the published state of one SLO for one series key.
type Status struct {
	SLO    string `json:"slo"`
	Key    string `json:"key"`
	Signal string `json:"signal"`
	Round  int    `json:"round"`  // latest observed round
	Rounds int    `json:"rounds"` // samples observed since StartRun

	Bad      int     `json:"bad"`       // bad rounds inside the budget window
	Budget   float64 `json:"budget"`    // bad rounds the window tolerates
	Spend    float64 `json:"spend"`     // Bad/Budget; ≥1 means exhausted
	BurnFast float64 `json:"burn_fast"` // fast-window burn rate
	BurnSlow float64 `json:"burn_slow"` // slow-window burn rate
	Burn     float64 `json:"burn"`      // min(fast, slow): the paging signal
	Level    Level   `json:"level"`
	Since    int     `json:"since"` // round the current level began
}

// Exemplar pins the window of rounds that tripped a transition, plus
// the recording line offset of the window's first round when the
// stream was recorded (0 otherwise). `wsnq-sim -replay -replay-window
// FROM:TO` re-drives exactly these rounds through the rules.
type Exemplar struct {
	FromRound int   `json:"from_round"`
	ToRound   int   `json:"to_round"`
	Offset    int64 `json:"offset,omitempty"`
}

// Event is one deduplicated level transition.
type Event struct {
	SLO      string    `json:"slo"`
	Key      string    `json:"key"`
	Round    int       `json:"round"`
	Level    Level     `json:"level"`
	Prev     Level     `json:"prev"`
	Burn     float64   `json:"burn"`
	Spend    float64   `json:"spend"`
	Message  string    `json:"message"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// state is the evaluation state of one Spec × key pair. The windows
// use a fixed denominator from the first sample on — they start primed
// with good rounds — so each bad count is over the newest fast, slow,
// or budget-window slots of one shared ring.
type state struct {
	win       level.Ring[bool]         // the newest max(Window, SlowWindow) classifications
	fastBad   int                      // bad rounds among the newest FastWindow
	slowBad   int                      // bad rounds among the newest SlowWindow
	budgetBad int                      // bad rounds among the newest Window
	exemplar  level.Ring[exemplarSlot] // the fast window's rounds
	seen      int
	round     int
	standing  level.Standing
	burn      float64
	bfast     float64
	bslow     float64
	spend     float64
}

// exemplarSlot locates one round of the fast window in the recording.
type exemplarSlot struct {
	round  int
	offset int64 // recording line offset, 0 when not recorded
}

func newState(sp Spec) *state {
	return &state{
		win:      level.NewRing[bool](max(sp.Window, sp.SlowWindow)),
		exemplar: level.NewRing[exemplarSlot](sp.FastWindow),
	}
}

// push records one classification, moving the round that leaves each
// suffix window out of its bad count.
func (st *state) push(sp *Spec, bad bool) {
	n := st.win.Len()
	slide := func(size int, count *int) {
		if n >= size && st.win.At(n-size) {
			*count--
		}
		if bad {
			*count++
		}
	}
	slide(sp.FastWindow, &st.fastBad)
	slide(sp.SlowWindow, &st.slowBad)
	slide(sp.Window, &st.budgetBad)
	st.win.Push(bad)
}

// Tracker evaluates a set of Specs against per-key round samples. All
// methods are safe for concurrent use.
type Tracker struct {
	mu     sync.Mutex
	specs  []Spec
	states map[string][]*state // key → one state per spec
	order  []string            // insertion order of keys
	log    level.Log[Event]
}

// NewTracker validates the specs and builds a tracker. Duplicate spec
// names are rejected so statuses stay addressable.
func NewTracker(specs ...Spec) (*Tracker, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("slo: no specs")
	}
	names := make(map[string]bool, len(specs))
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if names[s.Name] {
			return nil, fmt.Errorf("slo: duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
	}
	return &Tracker{specs: append([]Spec(nil), specs...), states: make(map[string][]*state)}, nil
}

// Specs returns a copy of the tracked specs.
func (t *Tracker) Specs() []Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Spec(nil), t.specs...)
}

// StartRun resets the evaluation state of one key: a fresh deployment
// (a new run marker in a recording, a re-registered query) starts with
// a full budget and cold windows. Unknown keys are a no-op. The event
// log is retained — it narrates the whole session.
func (t *Tracker) StartRun(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.states[key] {
		win, ex := st.win, st.exemplar
		win.Reset()
		ex.Reset()
		*st = state{win: win, exemplar: ex}
	}
}

func (t *Tracker) stateFor(key string) []*state {
	sts := t.states[key]
	if sts == nil {
		sts = make([]*state, len(t.specs))
		for i, sp := range t.specs {
			sts[i] = newState(sp)
		}
		t.states[key] = sts
		t.order = append(t.order, key)
	}
	return sts
}

// Observe classifies one round's sample under every spec, updates the
// budget ledger and burn windows, and logs deduplicated level
// transitions. It allocates nothing on a transition-free round of a
// known key; read the refreshed statuses with StatusesFor.
func (t *Tracker) Observe(key string, sm Sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sts := t.stateFor(key)
	for i, st := range sts {
		sp := &t.specs[i]
		st.push(sp, !sp.good(sm))
		st.exemplar.Push(exemplarSlot{round: sm.Round, offset: sm.Offset})
		st.seen++
		st.round = sm.Round

		rate := 1 - sp.Objective
		st.bfast = float64(st.fastBad) / float64(sp.FastWindow) / rate
		st.bslow = float64(st.slowBad) / float64(sp.SlowWindow) / rate
		st.burn = math.Min(st.bfast, st.bslow)
		st.spend = float64(st.budgetBad) / sp.Budget()

		lvl := OK
		switch {
		case st.burn >= sp.CritBurn:
			lvl = Crit
		case st.burn >= sp.WarnBurn:
			lvl = Warn
		}
		if prev, changed := st.standing.Set(lvl, sm.Round); changed {
			ev := Event{
				SLO: sp.Name, Key: key, Round: sm.Round,
				Level: lvl, Prev: prev,
				Burn: st.burn, Spend: st.spend,
			}
			if lvl > OK {
				// The fast window is the tighter of the two firing
				// windows: its oldest retained round (before it has
				// filled, the run's first) opens the offending span.
				from := st.exemplar.At(0)
				ev.Exemplar = &Exemplar{FromRound: from.round, ToRound: sm.Round, Offset: from.offset}
				ev.Message = fmt.Sprintf("%s %s %s: burn %.3g (fast %.3g, slow %.3g) ≥ %.3g, budget %.0f%% spent, rounds %d..%d",
					lvl, sp.Name, key, st.burn, st.bfast, st.bslow, sp.threshold(lvl), 100*st.spend, from.round, sm.Round)
			} else {
				ev.Message = fmt.Sprintf("ok %s %s: burn %.3g below %.3g at round %d",
					sp.Name, key, st.burn, sp.WarnBurn, sm.Round)
			}
			t.log.Append(ev)
		}
	}
}

func (sp Spec) threshold(l Level) float64 {
	if l == Crit {
		return sp.CritBurn
	}
	return sp.WarnBurn
}

func (st *state) status(sp Spec, key string) Status {
	return Status{
		SLO: sp.Name, Key: key, Signal: sp.Signal,
		Round: st.round, Rounds: st.seen,
		Bad: st.budgetBad, Budget: sp.Budget(), Spend: st.spend,
		BurnFast: st.bfast, BurnSlow: st.bslow, Burn: st.burn,
		Level: st.standing.Level, Since: st.standing.Since,
	}
}

// Statuses returns the current status of every spec × key pair, keys
// in first-observation order, specs in declaration order.
func (t *Tracker) Statuses() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Status, 0, len(t.order)*len(t.specs))
	for _, key := range t.order {
		for i, sp := range t.specs {
			out = append(out, t.states[key][i].status(sp, key))
		}
	}
	return out
}

// StatusesFor returns the current statuses of one key, or nil if it
// has never been observed.
func (t *Tracker) StatusesFor(key string) []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	sts := t.states[key]
	if sts == nil {
		return nil
	}
	out := make([]Status, len(sts))
	for i, sp := range t.specs {
		out[i] = sts[i].status(sp, key)
	}
	return out
}

// Log returns a copy of the retained event log, oldest first.
func (t *Tracker) Log() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.All()
}

// LogSince returns the events appended after the absolute cursor and
// the new cursor to resume from (level.Log.Since).
func (t *Tracker) LogSince(cursor int) ([]Event, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.Since(cursor)
}

// Dropped returns how many events have been discarded from the log.
func (t *Tracker) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.Dropped()
}

// Gauges returns the worst burn and spend across this key's specs, the
// pair exported into the series stream (slo_burn / slo_spend) for the
// alert engine's sloburn and slospend presets. Unknown keys gauge 0.
func (t *Tracker) Gauges(key string) (burn, spend float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.states[key] {
		burn = math.Max(burn, st.burn)
		spend = math.Max(spend, st.spend)
	}
	return burn, spend
}

// Keys returns the observed keys in first-observation order.
func (t *Tracker) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}
