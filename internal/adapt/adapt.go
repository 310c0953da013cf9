// Package adapt closes the observability loop: a deterministic
// controller that turns the alert layer's level transitions (refinement
// storms, energy burn rates, rank-error excursions, orphaned subtrees,
// SLO budget burn) into protocol actions against a running simulation —
// switching the §4.2 shared-state hybrid between HBC and IQ, widening
// or narrowing IQ's adaptive Ξ interval, and proactively re-rooting the
// routing tree away from a relay whose burn rate projects death.
//
// Policies are declarative ("on storm(warn) do switch iq"), with
// hysteresis (hold) and per-action cooldowns so a flapping alert stream
// cannot flap the protocol. The controller is a pure function of the
// per-round point stream it observes: decisions depend only on the
// points (never on wall clocks, actuation results, or goroutine
// timing), so the same stream — live, re-run at any parallelism, or
// replayed from a scenario recording — yields the same decision log,
// byte for byte. Actuation is separated from deciding: Observe queues
// decisions, Apply drains them into an Actuator between rounds, and a
// controller without an actuator (the replay path) still logs exactly
// what it would have done.
package adapt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wsnq/internal/alert"
	"wsnq/internal/level"
	"wsnq/internal/series"
)

// Action is the protocol action a policy fires.
type Action uint8

const (
	// Switch pins the §4.2 adaptive hybrid to the policy's target
	// strategy (IQ, HBC, or POS), overriding its EWMA cost heuristic.
	Switch Action = iota + 1
	// Widen multiplies IQ's Ξ interval scale by the policy's factor:
	// more tolerance, fewer refinements and filter broadcasts.
	Widen
	// Narrow divides IQ's Ξ interval scale by the policy's factor:
	// tighter validation after rank-error excursions.
	Narrow
	// Reroot proactively re-parents the hottest relay's children onto
	// routes outside its subtree (sim.Runtime.ProactiveReroot).
	Reroot
)

var actionNames = map[Action]string{
	Switch: "switch",
	Widen:  "widen",
	Narrow: "narrow",
	Reroot: "reroot",
}

func (a Action) String() string {
	if n, ok := actionNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Defaults for the policy modifiers.
const (
	DefaultHold     = 1
	DefaultCooldown = 8
)

// Policy is one declarative control rule: when the named alert preset
// stands at Level or above for Hold consecutive observed rounds, fire
// the action — at most once per Cooldown rounds.
type Policy struct {
	// Trigger is the alert preset the policy subscribes to (storm,
	// burnrate, excursion, orphan, gc, heap, sloburn, slospend).
	Trigger string `json:"trigger"`
	// Level is the minimum alert level that arms the policy (Warn or
	// Crit).
	Level alert.Level `json:"level"`
	// Action is what firing does.
	Action Action `json:"action"`
	// Target is the switch target's protocol name ("IQ", "HBC", "POS");
	// empty for other actions.
	Target string `json:"target,omitempty"`
	// Factor is the widen/narrow Ξ scale factor (> 1); zero for other
	// actions.
	Factor float64 `json:"factor,omitempty"`
	// Hold is the hysteresis window: consecutive rounds the trigger must
	// stand at Level before the policy fires (≥ 1).
	Hold int `json:"hold"`
	// Cooldown is the minimum number of rounds between fires (≥ 1).
	Cooldown int `json:"cooldown"`
}

// actionString renders the action with its argument ("switch iq",
// "widen 2", "reroot") — the form both the grammar and the decision log
// use.
func (p Policy) actionString() string {
	switch p.Action {
	case Switch:
		return "switch " + strings.ToLower(p.Target)
	case Widen, Narrow:
		return fmt.Sprintf("%s %s", p.Action, strconv.FormatFloat(p.Factor, 'g', -1, 64))
	default:
		return p.Action.String()
	}
}

// String renders the policy in the canonical grammar. Every clause is
// printed — level, hold, and cooldown included — so Parse∘String is the
// identity on canonical forms.
func (p Policy) String() string {
	return fmt.Sprintf("on %s(%s) do %s hold %d cooldown %d",
		p.Trigger, p.Level, p.actionString(), p.Hold, p.Cooldown)
}

// Validate checks the policy is well-formed and references a known
// alert preset.
func (p Policy) Validate() error {
	if !presetKnown(p.Trigger) {
		return fmt.Errorf("adapt: unknown trigger %q (want an alert preset: %s)", p.Trigger, presetList())
	}
	if p.Level != alert.Warn && p.Level != alert.Crit {
		return fmt.Errorf("adapt: policy on %s: level must be warn or crit", p.Trigger)
	}
	switch p.Action {
	case Switch:
		switch p.Target {
		case "IQ", "HBC", "POS":
		default:
			return fmt.Errorf("adapt: policy on %s: switch target %q (want iq, hbc, or pos)", p.Trigger, p.Target)
		}
	case Widen, Narrow:
		if !(p.Factor > 1) || math.IsInf(p.Factor, 1) {
			return fmt.Errorf("adapt: policy on %s: %s factor %v (want a finite factor > 1)", p.Trigger, p.Action, p.Factor)
		}
	case Reroot:
	default:
		return fmt.Errorf("adapt: policy on %s: unknown action", p.Trigger)
	}
	if p.Hold < 1 {
		return fmt.Errorf("adapt: policy on %s: hold %d < 1", p.Trigger, p.Hold)
	}
	if p.Cooldown < 1 {
		return fmt.Errorf("adapt: policy on %s: cooldown %d < 1", p.Trigger, p.Cooldown)
	}
	return nil
}

// presetKnown reports whether name is a built-in alert preset.
func presetKnown(name string) bool {
	for _, r := range alert.Presets() {
		if r.Name == name {
			return true
		}
	}
	return false
}

// presetList renders the preset vocabulary for error messages.
func presetList() string {
	var names []string
	for _, r := range alert.Presets() {
		names = append(names, r.Name)
	}
	return strings.Join(names, ", ")
}

// The policy grammar (also documented in DESIGN.md §4k):
//
//	policies = policy *( ";" policy )
//	policy   = "on" trigger "do" action [ "hold" n ] [ "cooldown" n ]
//	trigger  = preset [ "(" level ")" ]        (level defaults to warn)
//	level    = "warn" | "crit"
//	action   = "switch" ( "iq" | "hbc" | "pos" )
//	         | "widen" factor | "narrow" factor    (factor > 1)
//	         | "reroot"
//
// preset is any built-in alert preset name (alert.Presets): storm,
// burnrate, excursion, orphan, gc, heap, sloburn, slospend. hold
// defaults to 1 (fire on the first standing round), cooldown to 8
// (rounds between fires). Whitespace separates tokens; policies join
// with ";".

// Parse parses a semicolon-separated policy list in the grammar above.
// Empty segments are skipped; an empty spec yields no policies.
func Parse(spec string) ([]Policy, error) {
	var ps []Policy
	for _, part := range strings.Split(spec, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		p, err := parsePolicy(part)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// parsePolicy parses a single policy clause.
func parsePolicy(s string) (Policy, error) {
	toks := strings.Fields(s)
	p := Policy{Level: alert.Warn, Hold: DefaultHold, Cooldown: DefaultCooldown}
	i := 0
	next := func() (string, bool) {
		if i >= len(toks) {
			return "", false
		}
		t := toks[i]
		i++
		return t, true
	}
	if t, ok := next(); !ok || t != "on" {
		return Policy{}, fmt.Errorf("adapt: policy %q must start with \"on\"", s)
	}
	trig, ok := next()
	if !ok {
		return Policy{}, fmt.Errorf("adapt: policy %q is missing its trigger", s)
	}
	if open := strings.Index(trig, "("); open >= 0 {
		if !strings.HasSuffix(trig, ")") {
			return Policy{}, fmt.Errorf("adapt: unclosed level in trigger %q", trig)
		}
		lvl := trig[open+1 : len(trig)-1]
		trig = trig[:open]
		if err := p.Level.UnmarshalText([]byte(lvl)); err != nil || p.Level == alert.OK {
			return Policy{}, fmt.Errorf("adapt: trigger level %q (want warn or crit)", lvl)
		}
	}
	p.Trigger = trig
	if t, ok := next(); !ok || t != "do" {
		return Policy{}, fmt.Errorf("adapt: policy %q is missing \"do\"", s)
	}
	act, ok := next()
	if !ok {
		return Policy{}, fmt.Errorf("adapt: policy %q is missing its action", s)
	}
	switch act {
	case "switch":
		p.Action = Switch
		target, ok := next()
		if !ok {
			return Policy{}, fmt.Errorf("adapt: switch in %q is missing its target", s)
		}
		p.Target = strings.ToUpper(target)
	case "widen", "narrow":
		p.Action = Widen
		if act == "narrow" {
			p.Action = Narrow
		}
		fs, ok := next()
		if !ok {
			return Policy{}, fmt.Errorf("adapt: %s in %q is missing its factor", act, s)
		}
		f, err := strconv.ParseFloat(fs, 64)
		if err != nil {
			return Policy{}, fmt.Errorf("adapt: bad %s factor %q: %v", act, fs, err)
		}
		p.Factor = f
	case "reroot":
		p.Action = Reroot
	default:
		return Policy{}, fmt.Errorf("adapt: unknown action %q (want switch, widen, narrow, or reroot)", act)
	}
	for {
		mod, ok := next()
		if !ok {
			break
		}
		val, ok := next()
		if !ok {
			return Policy{}, fmt.Errorf("adapt: modifier %q in %q is missing its value", mod, s)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return Policy{}, fmt.Errorf("adapt: bad %s value %q: %v", mod, val, err)
		}
		switch mod {
		case "hold":
			p.Hold = n
		case "cooldown":
			p.Cooldown = n
		default:
			return Policy{}, fmt.Errorf("adapt: unknown modifier %q (want hold or cooldown)", mod)
		}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Format renders a policy list back into the canonical "; "-joined
// grammar, such that Parse(Format(ps)) reproduces ps exactly.
func Format(ps []Policy) string {
	strs := make([]string, len(ps))
	for i, p := range ps {
		strs[i] = p.String()
	}
	return strings.Join(strs, "; ")
}

// Decision is one controller firing: policy intent, not actuation
// outcome — the log is identical whether or not an actuator is bound,
// which is what lets a scenario replay re-derive it bit-identically
// from the recorded point stream.
type Decision struct {
	Key     string      `json:"key"`
	Round   int         `json:"round"`
	Trigger string      `json:"trigger"`
	Level   alert.Level `json:"level"`
	Action  string      `json:"action"`
}

// String renders the decision in the stable one-line form the golden
// studies byte-pin.
func (d Decision) String() string {
	return fmt.Sprintf("%s@%d %s(%s) -> %s", d.Key, d.Round, d.Trigger, d.Level, d.Action)
}

// Actuator applies a fired policy to a running protocol. Act reports
// whether the action took effect (an IQ-less run cannot widen, a
// faultless runtime cannot reroot). BindRuntime builds the standard
// one.
type Actuator interface {
	Act(p Policy) bool
}

// notFired marks a policy that never fired; far enough below zero that
// any cooldown comparison against round 0 stays armed.
const notFired = math.MinInt / 2

// policyState is the hysteresis/cooldown state of one policy.
type policyState struct {
	armed    int // consecutive standing rounds at or above the level
	lastFire int
}

// Controller reads the standing alert levels of its triggers and turns
// them into queued protocol actions. It owns a private alert.Engine
// built from exactly the presets its policies reference, so attaching
// a controller never perturbs (or depends on) any user-attached alert
// engine. One controller observes one run's point stream (the
// experiment engine builds one per run; the query service one per
// query); it is not safe for concurrent use.
type Controller struct {
	policies []Policy
	eng      *alert.Engine
	trigger  []int         // each policy's trigger, as an index into eng's rules
	levels   []alert.Level // the observed key's levels, by rule index
	st       []policyState
	act      Actuator
	pending  []Policy
	log      level.Log[Decision]
}

// NewController builds a controller over the given policies. budget is
// the per-node initial energy supply the burnrate preset projects
// against (0 leaves burn-rate triggers inert, matching the alert
// engine's own contract).
func NewController(budget float64, policies ...Policy) (*Controller, error) {
	var rules []alert.Rule
	index := map[string]int{} // trigger → its rule's index
	trigger := make([]int, len(policies))
	for i, p := range policies {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if j, ok := index[p.Trigger]; ok {
			trigger[i] = j
			continue
		}
		for _, r := range alert.Presets() {
			if r.Name == p.Trigger {
				index[p.Trigger], trigger[i] = len(rules), len(rules)
				rules = append(rules, r)
				break
			}
		}
	}
	eng, err := alert.NewEngine(rules...)
	if err != nil {
		return nil, err
	}
	if budget > 0 {
		eng.SetBudget(budget)
	}
	c := &Controller{
		policies: append([]Policy(nil), policies...),
		eng:      eng,
		trigger:  trigger,
		st:       make([]policyState, len(policies)),
	}
	for i := range c.st {
		c.st[i].lastFire = notFired
	}
	return c, nil
}

// Policies returns a copy of the controller's policy set.
func (c *Controller) Policies() []Policy {
	return append([]Policy(nil), c.policies...)
}

// Bind attaches the actuator Apply drains fired policies into. A nil
// actuator (the default) leaves the controller in record-only mode —
// the replay path.
func (c *Controller) Bind(a Actuator) { c.act = a }

// Observe feeds one raw span-1 point through the controller: the
// private alert engine evaluates it, and every policy's hysteresis
// window advances on its trigger's standing level for key — firing
// queues a Decision for the next Apply. It is a series.Sink; attach it
// to the same ingester that feeds the other sinks.
func (c *Controller) Observe(key string, p series.Point) {
	c.levels = c.eng.ObserveLevels(key, p, c.levels[:0])
	for i := range c.policies {
		pol := &c.policies[i]
		st := &c.st[i]
		lvl := c.levels[c.trigger[i]]
		if lvl < pol.Level {
			st.armed = 0
			continue
		}
		st.armed++
		if st.armed < pol.Hold || p.Round-st.lastFire < pol.Cooldown {
			continue
		}
		st.lastFire = p.Round
		c.pending = append(c.pending, *pol)
		c.log.Append(Decision{
			Key: key, Round: p.Round,
			Trigger: pol.Trigger, Level: lvl,
			Action: pol.actionString(),
		})
	}
}

// Apply drains the queued decisions into the bound actuator and returns
// how many took effect. Drivers call it between rounds — right after
// sim.Runtime.AdvanceRound flushed the previous round's point through
// the sinks, before the protocol steps — so an action decided on round
// t's data acts on round t+1. Without an actuator the queue is simply
// discarded (the decision log keeps the intent).
func (c *Controller) Apply() int {
	if len(c.pending) == 0 {
		return 0
	}
	applied := 0
	if c.act != nil {
		for _, pol := range c.pending {
			if c.act.Act(pol) {
				applied++
			}
		}
	}
	c.pending = c.pending[:0]
	return applied
}

// Decisions returns a copy of the retained decision log, oldest first;
// the log is bounded like the alert log (level.LogCap).
func (c *Controller) Decisions() []Decision {
	return c.log.All()
}

// DecisionsSince returns the decisions logged after an absolute cursor
// (a value a previous call returned as next; 0 reads from the start)
// and the cursor to resume from (level.Log.Since) — the streaming form
// the query service stamps onto round updates.
func (c *Controller) DecisionsSince(cursor int) (ds []Decision, next int) {
	return c.log.Since(cursor)
}
