package alert

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wsnq/internal/level"
	"wsnq/internal/series"
)

// observe feeds the engine one round with the given frame count under
// key, the simplest way to steer a frames-based rule through levels.
func observe(e *Engine, key string, round, frames int) {
	e.Observe(key, series.Point{Round: round, Span: 1, Frames: frames})
}

// TestComparators exercises every comparator of the grammar against
// values below, at, and above both thresholds (satellite: table-driven
// coverage of each comparator and classification).
func TestComparators(t *testing.T) {
	cases := []struct {
		cmp        string
		warn, crit float64
		values     []float64
		want       []Level
	}{
		{">", 10, 20, []float64{5, 10, 15, 20, 25}, []Level{OK, OK, Warn, Warn, Crit}},
		{">=", 10, 20, []float64{5, 10, 15, 20, 25}, []Level{OK, Warn, Warn, Crit, Crit}},
		{"<", 20, 10, []float64{25, 20, 15, 10, 5}, []Level{OK, OK, Warn, Warn, Crit}},
		{"<=", 20, 10, []float64{25, 20, 15, 10, 5}, []Level{OK, Warn, Warn, Crit, Crit}},
	}
	for _, c := range cases {
		r := Rule{Name: "r", Metric: "frames", Agg: "last", Window: 1,
			Cmp: c.cmp, Warn: c.warn, Crit: c.crit, HasCrit: true}
		if err := r.Validate(); err != nil {
			t.Fatalf("cmp %q: %v", c.cmp, err)
		}
		cmp := resolve(&r).cmp
		for i, v := range c.values {
			if got := r.level(cmp, v); got != c.want[i] {
				t.Errorf("cmp %q value %g: level %v, want %v", c.cmp, v, got, c.want[i])
			}
		}
		if got := r.level(cmp, math.NaN()); got != OK {
			t.Errorf("cmp %q NaN: level %v, want OK (not enough data never alerts)", c.cmp, got)
		}
	}
}

// TestWarnOnlyRuleNeverCrit checks a rule without a crit threshold tops
// out at Warn.
func TestWarnOnlyRuleNeverCrit(t *testing.T) {
	r := Rule{Name: "r", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 10}
	if got := r.level(resolve(&r).cmp, 1e9); got != Warn {
		t.Errorf("warn-only rule at 1e9: level %v, want Warn", got)
	}
}

// TestLevelTransitions walks one rule × key through every transition —
// OK→Warn→Crit→Warn→OK plus a direct OK→Crit — and checks exactly the
// transitions fire, with the right prev levels (satellite: table-driven
// level-transition coverage).
func TestLevelTransitions(t *testing.T) {
	// warn at >=10, crit at >=20, last(1): each round's value is the
	// aggregate, so the level tracks the input directly.
	r := Rule{Name: "load", Metric: "frames", Agg: "last", Window: 1,
		Cmp: ">=", Warn: 10, Crit: 20, HasCrit: true}
	e, err := NewEngine(r)
	if err != nil {
		t.Fatal(err)
	}
	frames := []int{1, 5, 12, 15, 25, 25, 13, 2, 30, 30, 1}
	wantLevels := []Level{OK, OK, Warn, Warn, Crit, Crit, Warn, OK, Crit, Crit, OK}
	for i, f := range frames {
		observe(e, "HBC", i, f)
		st := e.States()
		if len(st) != 1 {
			t.Fatalf("round %d: %d states, want 1", i, len(st))
		}
		if st[0].Level != wantLevels[i] {
			t.Errorf("round %d (frames %d): level %v, want %v", i, f, st[0].Level, wantLevels[i])
		}
	}
	type tr struct {
		round      int
		prev, next Level
	}
	want := []tr{
		{2, OK, Warn}, {4, Warn, Crit}, {6, Crit, Warn}, {7, Warn, OK},
		{8, OK, Crit}, {10, Crit, OK},
	}
	log := e.Log()
	if len(log) != len(want) {
		t.Fatalf("log has %d events, want %d: %+v", len(log), len(want), log)
	}
	for i, w := range want {
		ev := log[i]
		if ev.Round != w.round || ev.Prev != w.prev || ev.Level != w.next {
			t.Errorf("event %d: round %d %v→%v, want round %d %v→%v",
				i, ev.Round, ev.Prev, ev.Level, w.round, w.prev, w.next)
		}
		if ev.Rule != "load" || ev.Key != "HBC" {
			t.Errorf("event %d: rule/key = %s/%s, want load/HBC", i, ev.Rule, ev.Key)
		}
		if ev.Level > OK && ev.Threshold != r.threshold(ev.Level) {
			t.Errorf("event %d: threshold %g, want %g", i, ev.Threshold, r.threshold(ev.Level))
		}
	}
	// Standing-level dedup: rounds 5 and 9 repeated the level and must
	// not have fired (checked implicitly by the exact log length above).
}

// TestOrphanPresetTransitions drives the orphan preset through a fault
// window: the first round decided with alive-but-orphaned nodes warns,
// a sustained repair backlog escalates to crit, and the level walks
// back down to OK as repaired rounds refill the window.
func TestOrphanPresetTransitions(t *testing.T) {
	r, ok := preset("orphan")
	if !ok {
		t.Fatal("orphan preset missing")
	}
	e, err := NewEngine(r)
	if err != nil {
		t.Fatal(err)
	}
	// Six consecutive degraded rounds (2..7), then full repair.
	orphans := []int{0, 0, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0}
	wantLevels := []Level{OK, OK, Warn, Warn, Warn, Warn, Warn, Crit,
		Crit, Crit, Warn, Warn, Warn, Warn, Warn, OK}
	for i, o := range orphans {
		e.Observe("IQ", series.Point{Round: i, Span: 1, Orphans: o})
		st := e.States()
		if len(st) != 1 {
			t.Fatalf("round %d: %d states, want 1", i, len(st))
		}
		if st[0].Level != wantLevels[i] {
			t.Errorf("round %d (orphans %d): level %v, want %v", i, o, st[0].Level, wantLevels[i])
		}
	}
	want := []struct {
		round      int
		prev, next Level
	}{
		{2, OK, Warn}, {7, Warn, Crit}, {10, Crit, Warn}, {15, Warn, OK},
	}
	log := e.Log()
	if len(log) != len(want) {
		t.Fatalf("log has %d events, want %d: %+v", len(log), len(want), log)
	}
	for i, w := range want {
		ev := log[i]
		if ev.Round != w.round || ev.Prev != w.prev || ev.Level != w.next {
			t.Errorf("event %d: round %d %v→%v, want round %d %v→%v",
				i, ev.Round, ev.Prev, ev.Level, w.round, w.prev, w.next)
		}
	}
}

// TestRuntimeHealthPresets drives the gc and heap presets through the
// runtime-health point columns a profiled run populates: unprofiled
// points (zero columns) stay OK, a long pause warns and a stop-the-
// world spike escalates, and live-heap growth walks the heap rule up.
func TestRuntimeHealthPresets(t *testing.T) {
	gc, ok := preset("gc")
	if !ok {
		t.Fatal("gc preset missing")
	}
	heap, ok := preset("heap")
	if !ok {
		t.Fatal("heap preset missing")
	}
	e, err := NewEngine(gc, heap)
	if err != nil {
		t.Fatal(err)
	}
	points := []series.Point{
		{Round: 0, Span: 1}, // unprofiled round: all columns zero
		{Round: 1, Span: 1, GCPauseMs: 7, HeapLiveBytes: 64 << 20},
		{Round: 2, Span: 1, GCPauseMs: 80, HeapLiveBytes: 512 << 20},
	}
	wantGC := []Level{OK, Warn, Crit}
	wantHeap := []Level{OK, OK, Warn}
	for i, p := range points {
		e.Observe("IQ", p)
		for _, st := range e.States() {
			want := wantGC[i]
			if st.Rule == "heap" {
				want = wantHeap[i]
			}
			if st.Level != want {
				t.Errorf("round %d: rule %s level %v, want %v", i, st.Rule, st.Level, want)
			}
		}
	}
}

// TestRetriesMetric checks the retries metric feeds windowed
// aggregates like any traffic counter.
func TestRetriesMetric(t *testing.T) {
	r := Rule{Name: "arq", Metric: "retries", Agg: "sum", Window: 4, Cmp: ">=", Warn: 5}
	e, err := NewEngine(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{1, 1, 1, 1, 3} {
		e.Observe("k", series.Point{Round: i, Span: 1, Retries: n})
	}
	st := e.States()
	if len(st) != 1 || st[0].Level != Warn || st[0].Value != 6 {
		t.Errorf("states = %+v, want one Warn at sum 6", st)
	}
}

// TestKeysAreIndependent checks one rule tracks separate levels per
// series key.
func TestKeysAreIndependent(t *testing.T) {
	r := Rule{Name: "load", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 10}
	e, _ := NewEngine(r)
	observe(e, "HBC", 0, 50)
	observe(e, "IQ", 0, 1)
	st := e.States()
	if len(st) != 2 {
		t.Fatalf("%d states, want 2", len(st))
	}
	// States sort by rule then key: HBC before IQ.
	if st[0].Key != "HBC" || st[0].Level != Warn {
		t.Errorf("state[0] = %+v, want HBC at warn", st[0])
	}
	if st[1].Key != "IQ" || st[1].Level != OK {
		t.Errorf("state[1] = %+v, want IQ at ok", st[1])
	}
}

// TestWindowedAggregate checks a mean(4) rule only alerts once the
// window average crosses, not on a single spike.
func TestWindowedAggregate(t *testing.T) {
	r := Rule{Name: "m", Metric: "frames", Agg: "mean", Window: 4, Cmp: ">", Warn: 10}
	e, _ := NewEngine(r)
	observe(e, "k", 0, 40) // mean 40 → warn (window holds one sample)
	observe(e, "k", 1, 0)  // mean 20 → still warn
	observe(e, "k", 2, 0)  // mean 13.3 → warn
	observe(e, "k", 3, 0)  // mean 10 → recovered
	log := e.Log()
	if len(log) != 2 || log[0].Level != Warn || log[1].Level != OK {
		t.Fatalf("log = %+v, want one warn then one recovery", log)
	}
	if log[1].Round != 3 {
		t.Errorf("recovery at round %d, want 3", log[1].Round)
	}
}

// TestRateAggregate checks rate() measures per-round rise over the
// window and needs two samples.
func TestRateAggregate(t *testing.T) {
	r := Rule{Name: "r", Metric: "frames", Agg: "rate", Window: 3, Cmp: ">=", Warn: 5}
	e, _ := NewEngine(r)
	observe(e, "k", 0, 0)
	if st := e.States(); st[0].Value != 0 { // NaN sanitized to 0, no alert
		t.Errorf("one-sample rate value = %g, want sanitized 0", st[0].Value)
	}
	observe(e, "k", 1, 10) // (10-0)/1 = 10 ≥ 5 → warn
	observe(e, "k", 2, 10) // (10-0)/2 = 5 ≥ 5 → warn holds
	observe(e, "k", 3, 10) // window now 10,10,10 → rate 0 → recovery
	log := e.Log()
	if len(log) != 2 || log[0].Round != 1 || log[0].Level != Warn || log[1].Round != 3 || log[1].Level != OK {
		t.Fatalf("log = %+v, want warn@1 and recovery@3", log)
	}
}

// TestNzAggregate checks nz() counts non-zero rounds in the window —
// the excursion detector's aggregate.
func TestNzAggregate(t *testing.T) {
	r := Rule{Name: "x", Metric: "rank_error", Agg: "nz", Window: 4, Cmp: ">=", Warn: 3}
	e, _ := NewEngine(r)
	errs := []int{1, 0, 2, 5, 0, 0, 0}
	wantWarn := []bool{false, false, false, true, false, false, false}
	// windows: [1] [1,0] [1,0,2] [1,0,2,5]=3nz [0,2,5,0]=2 [2,5,0,0]=2 [5,0,0,0]=1
	for i, v := range errs {
		e.Observe("k", series.Point{Round: i, Span: 1, RankError: v})
		if got := e.States()[0].Level == Warn; got != wantWarn[i] {
			t.Errorf("round %d: warn=%v, want %v", i, got, wantWarn[i])
		}
	}
}

// TestLifetimeMetric drives the burn-rate detector: a steady HotJoules
// drain projects the rounds left to the budget.
func TestLifetimeMetric(t *testing.T) {
	r := Rule{Name: "life", Metric: "lifetime", Agg: "rate", Window: 4, Cmp: "<", Warn: 500}
	e, _ := NewEngine(r)
	e.SetBudget(100)
	// drain 1 J/round: hot = 1,2,3,... budget 100 → ~97 rounds left.
	for i := 0; i < 4; i++ {
		e.Observe("k", series.Point{Round: i, Span: 1, HotJoules: float64(i + 1)})
	}
	st := e.States()[0]
	if st.Level != Warn {
		t.Errorf("level = %v, want warn (projection %g < 500)", st.Level, st.Value)
	}
	if math.Abs(st.Value-96) > 1e-9 { // (100-4)/1
		t.Errorf("projection = %g, want 96", st.Value)
	}
}

// TestLifetimeNoBudgetNeverAlerts checks an unknown budget projects
// +Inf, which sanitizes to -1 and never trips a < rule.
func TestLifetimeNoBudgetNeverAlerts(t *testing.T) {
	r := Rule{Name: "life", Metric: "lifetime", Agg: "rate", Window: 4, Cmp: "<", Warn: 1e12}
	e, _ := NewEngine(r)
	for i := 0; i < 8; i++ {
		e.Observe("k", series.Point{Round: i, Span: 1, HotJoules: float64(i + 1)})
	}
	st := e.States()[0]
	if st.Level != OK {
		t.Errorf("level = %v, want ok without a budget", st.Level)
	}
	if st.Value != -1 {
		t.Errorf("value = %g, want -1 (the +Inf no-projection convention)", st.Value)
	}
}

// TestDefaultBudgetOnlyWhenUnset checks the engine wiring rule: an
// explicit SetBudget wins over the study's DefaultBudget.
func TestDefaultBudgetOnlyWhenUnset(t *testing.T) {
	e, _ := NewEngine()
	e.DefaultBudget(5)
	if e.budget != 5 {
		t.Errorf("budget = %g, want 5 (default applied when unset)", e.budget)
	}
	e.DefaultBudget(9)
	if e.budget != 5 {
		t.Errorf("budget = %g, want 5 (second default ignored)", e.budget)
	}
	e.SetBudget(2)
	e.DefaultBudget(9)
	if e.budget != 2 {
		t.Errorf("budget = %g, want explicit 2", e.budget)
	}
}

// TestStartRunResetsWindows checks run boundaries clear the sliding
// windows (no cross-run aggregates) but keep standing levels and log.
func TestStartRunResetsWindows(t *testing.T) {
	r := Rule{Name: "s", Metric: "frames", Agg: "sum", Window: 8, Cmp: ">=", Warn: 100}
	e, _ := NewEngine(r)
	for i := 0; i < 3; i++ {
		observe(e, "k", i, 30) // sum 90 after run 1: below warn
	}
	e.StartRun("k")
	observe(e, "k", 0, 30) // fresh window: sum 30, NOT 120
	st := e.States()[0]
	if st.Level != OK {
		t.Errorf("level = %v, want ok (windows must not span runs)", st.Level)
	}
	if st.Value != 30 {
		t.Errorf("aggregate = %g, want 30 (run 1 samples flushed)", st.Value)
	}
	if st.Rounds != 4 {
		t.Errorf("rounds = %d, want 4 (lifetime counter survives runs)", st.Rounds)
	}
}

// TestStartRunKeepsStandingLevel checks an alert raised in one run is
// still visible while the next run streams.
func TestStartRunKeepsStandingLevel(t *testing.T) {
	r := Rule{Name: "load", Metric: "frames", Agg: "max", Window: 4, Cmp: ">", Warn: 10}
	e, _ := NewEngine(r)
	observe(e, "k", 0, 50)
	e.StartRun("k")
	if st := e.States()[0]; st.Level != Warn {
		t.Errorf("level after run boundary = %v, want the standing warn", st.Level)
	}
	if len(e.Log()) != 1 {
		t.Errorf("log length = %d, want 1 (no spurious boundary events)", len(e.Log()))
	}
}

// TestLogBounded checks the log drops its oldest half at capacity and
// counts the drops.
func TestLogBounded(t *testing.T) {
	r := Rule{Name: "load", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 10}
	e, _ := NewEngine(r)
	rounds := level.LogCap + 10
	for i := 0; i < rounds; i++ {
		observe(e, "k", 2*i, 50) // warn
		observe(e, "k", 2*i+1, 0)
	}
	if len(e.Log()) > level.LogCap {
		t.Errorf("log grew to %d, capacity %d", len(e.Log()), level.LogCap)
	}
	if e.Dropped() == 0 {
		t.Error("dropped count = 0, want > 0 after overflow")
	}
	// Newest event must survive.
	log := e.Log()
	if last := log[len(log)-1]; last.Round != 2*rounds-1 {
		t.Errorf("newest surviving event at round %d, want %d", last.Round, 2*rounds-1)
	}
}

// TestMessages pins the human-readable alert line formats.
func TestMessages(t *testing.T) {
	r := Rule{Name: "load", Metric: "frames", Agg: "last", Window: 1,
		Cmp: ">=", Warn: 10, Crit: 20, HasCrit: true}
	e, _ := NewEngine(r)
	observe(e, "HBC", 3, 25)
	observe(e, "HBC", 4, 0)
	log := e.Log()
	if len(log) != 2 {
		t.Fatalf("log = %+v, want 2 events", log)
	}
	if want := "load[HBC] crit: frames:last(1) = 25 >= 20 (round 3)"; log[0].Message != want {
		t.Errorf("crit message = %q, want %q", log[0].Message, want)
	}
	if want := "load[HBC] recovered: frames:last(1) = 0 (round 4)"; log[1].Message != want {
		t.Errorf("recovery message = %q, want %q", log[1].Message, want)
	}
}

// TestMessageMatchesSprintf: message builds the bytes of its fmt form
// over random rules and values, negative, tiny, huge, integral and
// non-finite floats included.
func TestMessageMatchesSprintf(t *testing.T) {
	sprintf := func(r Rule, ev Event) string {
		if ev.Level > OK {
			verb := fmt.Sprintf("%s: %s:%s(%d) = %g %s %g",
				ev.Level, r.Metric, r.Agg, r.Window, ev.Value, r.Cmp, ev.Threshold)
			return fmt.Sprintf("%s[%s] %s (round %d)", r.Name, ev.Key, verb, ev.Round)
		}
		return fmt.Sprintf("%s[%s] %s: %s:%s(%d) = %g (round %d)",
			r.Name, ev.Key, "recovered", r.Metric, r.Agg, r.Window, ev.Value, ev.Round)
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 42, -7e3, 1e21, 1e-7, 5e-324,
		-math.MaxFloat64, 0.1, 123456.789, 1e20, 1e-5, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return float64(rng.Intn(2001) - 1000)
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
		return math.Float64frombits(rng.Uint64())
	}
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	for i := 0; i < 5000; i++ {
		r := Rule{
			Name: pick("load", "err", "storm-2", ""), Metric: pick("frames", "rank_error", "lifetime"),
			Agg: pick("last", "mean", "p95", "rate"), Window: rng.Intn(100) - 1, Cmp: pick(">", ">=", "<", "<="),
		}
		ev := Event{
			Key: pick("IQ", "0.1/HBC", "a[b]"), Round: rng.Intn(1e6) - 3,
			Level: Level(rng.Intn(4)), Value: float(), Threshold: float(),
		}
		if got, want := message(r, ev), sprintf(r, ev); got != want {
			t.Fatalf("message %q, Sprintf %q", got, want)
		}
	}
}

// TestRuleEngineDeterminism is the determinism gate of `make alert`:
// the same rule set over the same point stream must yield the same log
// and states, byte for byte.
func TestRuleEngineDeterminism(t *testing.T) {
	build := func() ([]byte, []byte) {
		rules, err := ParseRules("storm; excursion; hot=frames:mean(4)>6,9")
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(rules...)
		if err != nil {
			t.Fatal(err)
		}
		e.SetBudget(0.324)
		for run := 0; run < 3; run++ {
			for _, key := range []string{"HBC", "IQ"} {
				e.StartRun(key)
				for i := 0; i < 64; i++ {
					e.Observe(key, series.Point{
						Round: i, Span: 1,
						Frames:    (i*7 + run) % 13,
						RankError: (i * 3) % 5,
						Refines:   i % 4,
						HotJoules: float64(run*64+i) * 1e-6,
					})
				}
			}
		}
		lj, err := json.Marshal(e.Log())
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(e.States())
		if err != nil {
			t.Fatal(err)
		}
		return lj, sj
	}
	l1, s1 := build()
	l2, s2 := build()
	if string(l1) != string(l2) {
		t.Error("two identical streams produced different alert logs")
	}
	if string(s1) != string(s2) {
		t.Error("two identical streams produced different states")
	}
	if string(l1) == "null" {
		t.Error("determinism stream produced no events at all — thresholds are dead")
	}
}

// TestValidateRejects enumerates the malformed-rule errors.
func TestValidateRejects(t *testing.T) {
	good := Rule{Name: "r", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 1}
	cases := []struct {
		name   string
		mutate func(*Rule)
	}{
		{"empty name", func(r *Rule) { r.Name = "" }},
		{"unknown metric", func(r *Rule) { r.Metric = "watts" }},
		{"unknown agg", func(r *Rule) { r.Agg = "median" }},
		{"unknown cmp", func(r *Rule) { r.Cmp = "==" }},
		{"zero window", func(r *Rule) { r.Window = 0 }},
		{"crit below warn for >", func(r *Rule) { r.Crit, r.HasCrit = 0.5, true }},
		{"crit above warn for <", func(r *Rule) { r.Cmp = "<"; r.Crit, r.HasCrit = 2, true }},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline rule invalid: %v", err)
	}
	for _, c := range cases {
		r := good
		c.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, r)
		}
	}
}

// TestLevelTextRoundTrip checks the JSON text encoding of levels.
func TestLevelTextRoundTrip(t *testing.T) {
	for _, l := range []Level{OK, Warn, Crit} {
		b, err := l.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Level
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != l {
			t.Errorf("round trip %v → %s → %v", l, b, got)
		}
	}
	var l Level
	if err := l.UnmarshalText([]byte("fatal")); err == nil {
		t.Error("UnmarshalText accepted unknown level")
	}
}

// TestStatesSorted checks States orders by rule definition order, then
// key, regardless of observation order.
func TestStatesSorted(t *testing.T) {
	rs, err := ParseRules("b=frames>100; a=joules>1")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(rs...)
	observe(e, "z", 0, 1)
	observe(e, "a", 1, 1)
	st := e.States()
	want := []struct{ rule, key string }{{"b", "a"}, {"b", "z"}, {"a", "a"}, {"a", "z"}}
	if len(st) != len(want) {
		t.Fatalf("%d states, want %d", len(st), len(want))
	}
	for i, w := range want {
		if st[i].Rule != w.rule || st[i].Key != w.key {
			t.Errorf("state %d = %s/%s, want %s/%s", i, st[i].Rule, st[i].Key, w.rule, w.key)
		}
	}
	if !reflect.DeepEqual(e.Rules(), rs) {
		t.Error("Rules() does not round-trip the constructor's rule set")
	}
}

// TestObserveAllocatesNothing checks a warmed-up observe that fires no
// transition allocates nothing, for every aggregator and for the full
// preset set: windows are reduced in place and p95 sorts a per-state
// buffer.
func TestObserveAllocatesNothing(t *testing.T) {
	var cases [][]Rule
	for _, agg := range []string{"last", "mean", "max", "min", "sum", "p95", "rate", "nz"} {
		cases = append(cases, []Rule{{Name: agg, Metric: "frames", Agg: agg, Window: 8, Cmp: ">", Warn: 1e18}})
	}
	cases = append(cases, []Rule{{Name: "lifetime", Metric: "lifetime", Agg: "rate", Window: 32, Cmp: "<", Warn: 1}}, Presets())
	for _, rules := range cases {
		name := rules[0].Name
		if len(rules) > 1 {
			name = "presets"
		}
		e, err := NewEngine(rules...)
		if err != nil {
			t.Fatal(err)
		}
		e.SetBudget(1)
		round := 0
		step := func() {
			e.Observe("k", series.Point{
				Round: round, Span: 1, Frames: round % 7,
				HotJoules: float64(round) * 1e-9,
			})
			round++
		}
		for i := 0; i < 64; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %v allocs per observe, want 0", name, allocs)
		}
		if log := e.Log(); len(log) != 0 {
			t.Errorf("%s: observe stream fired %d transitions, want none", name, len(log))
		}
	}
}

// BenchmarkEngineObserve measures one point through the storm,
// excursion and orphan presets, the rule set the chaos benchmark
// attaches, with the points spread over six keys as a grid of
// algorithms and runs spreads them. The stream is mostly
// transition-free, as a healthy run's is.
func BenchmarkEngineObserve(b *testing.B) {
	rules, err := ParseRules("storm; excursion; orphan")
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(rules...)
	if err != nil {
		b.Fatal(err)
	}
	keys := []string{"IQ", "HBC", "ADAPT", "0.1/IQ", "0.1/HBC", "0.1/ADAPT"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		round := i / len(keys)
		e.Observe(keys[i%len(keys)], series.Point{
			Round: round, Span: 1, Frames: 100 + round%7, Refines: 1,
			RankError: round % 8 / 7, Orphans: round % 64 / 63,
		})
	}
}
