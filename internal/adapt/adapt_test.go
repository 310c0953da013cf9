package adapt

import (
	"reflect"
	"testing"

	"wsnq/internal/alert"
	"wsnq/internal/level"
	"wsnq/internal/series"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{
			"on storm do switch iq",
			"on storm(warn) do switch iq hold 1 cooldown 8",
		},
		{
			"on storm(crit) do switch hbc hold 2 cooldown 16",
			"on storm(crit) do switch hbc hold 2 cooldown 16",
		},
		{
			"on excursion do narrow 2",
			"on excursion(warn) do narrow 2 hold 1 cooldown 8",
		},
		{
			"on orphan(warn) do widen 1.5 cooldown 4",
			"on orphan(warn) do widen 1.5 hold 1 cooldown 4",
		},
		{
			"on burnrate(crit) do reroot hold 3",
			"on burnrate(crit) do reroot hold 3 cooldown 8",
		},
		{
			"on storm do switch IQ; on burnrate do reroot",
			"on storm(warn) do switch iq hold 1 cooldown 8; on burnrate(warn) do reroot hold 1 cooldown 8",
		},
	}
	for _, c := range cases {
		ps, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		got := Format(ps)
		if got != c.want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", c.in, got, c.want)
		}
		// Canonical forms are fixed points: Parse∘String is the identity.
		again, err := Parse(got)
		if err != nil {
			t.Fatalf("Parse(%q) (canonical): %v", got, err)
		}
		if !reflect.DeepEqual(again, ps) {
			t.Errorf("Parse(Format(ps)) != ps for %q: %+v vs %+v", c.in, again, ps)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"storm do switch iq",            // missing "on"
		"on do switch iq",               // trigger eaten by "do"
		"on nosuch do reroot",           // unknown preset
		"on storm(ok) do reroot",        // OK is not an armable level
		"on storm(warn do reroot",       // unclosed level
		"on storm switch iq",            // missing "do"
		"on storm do",                   // missing action
		"on storm do teleport",          // unknown action
		"on storm do switch",            // missing target
		"on storm do switch tag",        // unknown target
		"on storm do widen",             // missing factor
		"on storm do widen one",         // non-numeric factor
		"on storm do widen 1",           // factor must exceed 1
		"on storm do narrow 0.5",        // ditto
		"on storm do reroot hold",       // dangling modifier
		"on storm do reroot hold x",     // non-numeric modifier
		"on storm do reroot hold 0",     // hold < 1
		"on storm do reroot cooldown 0", // cooldown < 1
		"on storm do reroot every 2",    // unknown modifier
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
	if ps, err := Parse(" ; ;"); err != nil || len(ps) != 0 {
		t.Errorf("Parse of empty segments = %v, %v; want no policies", ps, err)
	}
}

// stormPoint fabricates a raw span-1 point that trips (or clears) the
// storm preset: refines:max(8) >= 2 warns, >= 4 is critical.
func stormPoint(round, refines int) series.Point {
	return series.Point{Round: round, Span: 1, Refines: refines}
}

// recorder is a test actuator that logs what it is asked to do.
type recorder struct {
	acts []Policy
	deny bool
}

func (r *recorder) Act(p Policy) bool {
	r.acts = append(r.acts, p)
	return !r.deny
}

func TestControllerFiresAndCoolsDown(t *testing.T) {
	ps, err := Parse("on storm do switch hbc cooldown 8")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	c.Bind(rec)
	// A standing storm: refines >= 2 every round. The max(8) window keeps
	// the alert at Warn throughout, so the policy re-fires exactly once
	// per cooldown window.
	for r := 0; r < 20; r++ {
		c.Observe("q", stormPoint(r, 3))
		c.Apply()
	}
	ds := c.Decisions()
	if len(ds) != 3 {
		t.Fatalf("decisions = %d, want 3 (rounds 0, 8, 16): %v", len(ds), ds)
	}
	for i, wantRound := range []int{0, 8, 16} {
		if ds[i].Round != wantRound {
			t.Errorf("decision %d at round %d, want %d", i, ds[i].Round, wantRound)
		}
	}
	if len(rec.acts) != 3 {
		t.Errorf("actuator saw %d actions, want 3", len(rec.acts))
	}
	if got := ds[0].String(); got != "q@0 storm(warn) -> switch hbc" {
		t.Errorf("decision string = %q", got)
	}
}

func TestControllerFlappingRespectsCooldown(t *testing.T) {
	// The satellite requirement: a flapping WARN↔OK alert stream must
	// produce at most one action per cooldown window. The storm preset's
	// max(8) window holds Warn while any of the last 8 rounds stormed,
	// so flap on a longer period to force genuine WARN→OK→WARN
	// transitions.
	ps, err := Parse("on storm do switch hbc cooldown 10")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	fires := map[int]bool{}
	for r := 0; r < 60; r++ {
		refines := 0
		if (r/9)%2 == 0 { // 9 stormy rounds, 9 quiet, ...
			refines = 3
		}
		before := len(c.Decisions())
		c.Observe("q", stormPoint(r, refines))
		if len(c.Decisions()) > before {
			fires[r] = true
		}
	}
	rounds := make([]int, 0, len(fires))
	for r := range fires {
		rounds = append(rounds, r)
	}
	for a := range fires {
		for b := range fires {
			if a != b && b > a && b-a < 10 {
				t.Fatalf("fired at rounds %d and %d: closer than the cooldown 10 (%v)", a, b, rounds)
			}
		}
	}
	if len(fires) == 0 {
		t.Fatal("flapping stream never fired at all")
	}
}

func TestControllerHoldHysteresis(t *testing.T) {
	// The sloburn preset is last(1), so its standing level tracks the
	// current round exactly — the cleanest probe for the hold window.
	ps, err := Parse("on sloburn do switch iq hold 3 cooldown 4")
	if err != nil {
		t.Fatal(err)
	}
	burn := func(round int, burn float64) series.Point {
		return series.Point{Round: round, Span: 1, SLOBurn: burn}
	}
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	// Two hot rounds, then cool: the excursion never reaches hold 3 and
	// the armed counter must reset.
	c.Observe("q", burn(0, 7))
	c.Observe("q", burn(1, 7))
	for r := 2; r < 6; r++ {
		c.Observe("q", burn(r, 0))
	}
	if ds := c.Decisions(); len(ds) != 0 {
		t.Fatalf("2-round excursion fired hold-3 policy: %v", ds)
	}
	// Three consecutive hot rounds fire exactly on the third.
	for r := 6; r < 9; r++ {
		c.Observe("q", burn(r, 7))
		want := 0
		if r == 8 {
			want = 1
		}
		if got := len(c.Decisions()); got != want {
			t.Fatalf("round %d: decisions = %d, want %d", r, got, want)
		}
	}
}

func TestControllerDeterministicReplay(t *testing.T) {
	// Same point stream, fresh controllers, with and without an
	// actuator: the decision logs must be bit-identical — this is what
	// lets scenario replay re-derive a recorded run's decisions.
	ps, err := Parse("on storm do switch hbc; on excursion(warn) do widen 2 cooldown 12")
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]series.Point, 0, 48)
	for r := 0; r < 48; r++ {
		p := series.Point{Round: r, Span: 1}
		if r%5 == 0 {
			p.Refines = 2 + r%3
		}
		if r > 10 && r%3 == 0 {
			p.RankError = 1
		}
		stream = append(stream, p)
	}
	run := func(bind bool) []Decision {
		c, err := NewController(0, ps...)
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			c.Bind(&recorder{})
		}
		for _, p := range stream {
			c.Observe("q", p)
			c.Apply()
		}
		return c.Decisions()
	}
	live, replay := run(true), run(false)
	if len(live) == 0 {
		t.Fatal("stream produced no decisions; test is vacuous")
	}
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("decision logs diverge:\nlive:   %v\nreplay: %v", live, replay)
	}
	// A denying actuator must not change the log either: decisions are
	// intent, not actuation outcome.
	c, _ := NewController(0, ps...)
	c.Bind(&recorder{deny: true})
	for _, p := range stream {
		c.Observe("q", p)
		if c.Apply() != 0 {
			t.Fatal("denying actuator reported applied actions")
		}
	}
	if !reflect.DeepEqual(c.Decisions(), live) {
		t.Fatal("denying actuator changed the decision log")
	}
}

func TestControllerLevelGate(t *testing.T) {
	ps, err := Parse("on storm(crit) do switch hbc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		c.Observe("q", stormPoint(r, 2)) // Warn only (crit is >= 4)
	}
	if ds := c.Decisions(); len(ds) != 0 {
		t.Fatalf("crit-gated policy fired on warn: %v", ds)
	}
	c.Observe("q", stormPoint(10, 5))
	ds := c.Decisions()
	if len(ds) != 1 || ds[0].Level != alert.Crit {
		t.Fatalf("crit storm: decisions = %v", ds)
	}
}

func TestDecisionsSince(t *testing.T) {
	ps, _ := Parse("on storm do reroot cooldown 4")
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	cursor := 0
	var seen []Decision
	for r := 0; r < 12; r++ {
		c.Observe("q", stormPoint(r, 3))
		var ds []Decision
		ds, cursor = c.DecisionsSince(cursor)
		seen = append(seen, ds...)
	}
	if !reflect.DeepEqual(seen, c.Decisions()) {
		t.Fatalf("streamed decisions %v != full log %v", seen, c.Decisions())
	}
	if ds, next := c.DecisionsSince(cursor); len(ds) != 0 || next != cursor {
		t.Fatalf("drained cursor returned %v, %d", ds, next)
	}
}

// TestControllerDecisionLogBounded checks a long-running controller's
// decision log stays within the bounded-log cap while DecisionsSince
// cursors keep counting every decision ever logged.
func TestControllerDecisionLogBounded(t *testing.T) {
	ps, _ := Parse("on storm do reroot cooldown 1")
	c, err := NewController(0, ps...)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3 * level.LogCap
	cursor, streamed := 0, 0
	for r := 0; r < rounds; r++ {
		c.Observe("q", stormPoint(r, 3))
		if r%100 == 0 {
			var ds []Decision
			ds, cursor = c.DecisionsSince(cursor)
			streamed += len(ds)
		}
	}
	ds, next := c.DecisionsSince(cursor)
	streamed += len(ds)
	if next != rounds || streamed != rounds {
		t.Fatalf("cursor %d, streamed %d decisions; want %d fires, one per round", next, streamed, rounds)
	}
	all := c.Decisions()
	if len(all) > level.LogCap {
		t.Fatalf("decision log grew to %d, cap %d", len(all), level.LogCap)
	}
	if last := all[len(all)-1]; last.Round != rounds-1 {
		t.Errorf("newest retained decision at round %d, want %d", last.Round, rounds-1)
	}
	old, _ := c.DecisionsSince(0) // cursor into the discarded region
	if !reflect.DeepEqual(old, all) {
		t.Error("a discarded cursor must yield the oldest retained decisions")
	}
}

func TestNewControllerRejectsBadPolicy(t *testing.T) {
	if _, err := NewController(0, Policy{Trigger: "storm"}); err == nil {
		t.Fatal("zero-valued policy accepted")
	}
	if _, err := NewController(0); err != nil {
		t.Fatalf("empty controller: %v", err)
	}
}

func TestFormatEmpty(t *testing.T) {
	if got := Format(nil); got != "" {
		t.Errorf("Format(nil) = %q", got)
	}
	if _, err := Parse(""); err != nil {
		t.Errorf("Parse(\"\") = %v", err)
	}
}

func TestGrammarMentionsEveryPreset(t *testing.T) {
	// The policy grammar must accept every alert preset as a trigger.
	for _, r := range alert.Presets() {
		spec := "on " + r.Name + " do reroot"
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}
