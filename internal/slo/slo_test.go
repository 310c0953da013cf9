package slo

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"wsnq/internal/series"
)

// mustTracker builds a tracker from a spec string or fails the test.
func mustTracker(t *testing.T, spec string) *Tracker {
	t.Helper()
	specs, err := ParseSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"rank",
		"fresh",
		"latency",
		"rank epsilon=0.02 objective=0.999",
		"fresh stale=3 objective=0.9 window=128",
		"latency ms=25 fast=4 slow=32 warn=3 crit=10 name=p99",
	}
	for _, src := range cases {
		sp, err := ParseSpec(src)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", src, err)
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q round-tripped as %q): %v", src, sp.String(), err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Errorf("round trip of %q: %+v != %+v", src, sp, again)
		}
		if again.String() != sp.String() {
			t.Errorf("canonical form unstable: %q != %q", again.String(), sp.String())
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	sp, err := ParseSpec("rank")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Name: "rank", Signal: SignalRank, Objective: 0.99,
		Window: DefaultWindow, FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow,
		WarnBurn: DefaultWarnBurn, CritBurn: DefaultCritBurn, Epsilon: DefaultEpsilon,
	}
	if sp != want {
		t.Errorf("rank defaults = %+v, want %+v", sp, want)
	}
	fr, err := ParseSpec("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Objective != 0.95 || fr.MaxStale != 0 {
		t.Errorf("fresh defaults = %+v, want objective 0.95 stale 0", fr)
	}
	la, err := ParseSpec("latency")
	if err != nil {
		t.Fatal(err)
	}
	if la.LatencyMs != DefaultLatencyMs {
		t.Errorf("latency default bound = %v, want %v", la.LatencyMs, DefaultLatencyMs)
	}
}

func TestParseSpecsListRoundTrip(t *testing.T) {
	specs, err := ParseSpecs("rank; fresh objective=0.9; latency ms=25;")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("len = %d, want 3", len(specs))
	}
	again, err := ParseSpecs(FormatSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Errorf("FormatSpecs round trip: %+v != %+v", specs, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"":                         "empty spec",
		"bogus":                    "unknown signal",
		"rank foo=1":               "unknown key",
		"rank epsilon":             "not key=value",
		"fresh epsilon=0.1":        "applies to rank only",
		"rank stale=1":             "applies to fresh only",
		"fresh ms=9":               "applies to latency only",
		"rank objective=1":         "outside (0, 1)",
		"rank objective=x":         "bad objective",
		"rank window=0":            "window 0",
		"rank fast=9 slow=4":       "fast",
		"rank warn=0":              "warn burn",
		"rank warn=8 crit=2":       "crit burn",
		"rank epsilon=0":           "epsilon",
		"fresh stale=-1":           "staleness",
		"latency ms=0":             "latency bound",
		"rank name=a; rank name=a": "duplicate spec name",
		";":                        "empty spec",
	}
	for src, frag := range cases {
		_, err := ParseSpecs(src)
		if err == nil {
			t.Errorf("ParseSpecs(%q): no error, want %q", src, frag)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseSpecs(%q) = %q, want fragment %q", src, err, frag)
		}
	}
}

// TestBudgetArithmeticGolden pins the budget math: the error budget,
// the burn rates, and the spend fraction after a known round stream.
func TestBudgetArithmeticGolden(t *testing.T) {
	sp, err := ParseSpec("rank objective=0.99 window=512")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Budget(); got < 5.119 || got > 5.121 {
		t.Errorf("Budget(0.99, 512) = %v, want 5.12", got)
	}
	sp2, err := ParseSpec("fresh objective=0.95 window=200")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp2.Budget(); got < 9.999 || got > 10.001 {
		t.Errorf("Budget(0.95, 200) = %v, want 10", got)
	}

	// objective 0.5 → rate 0.5, so burn = 2 × bad fraction; fast=4,
	// slow=8, budget window=8 → budget of 4 bad rounds.
	tr := mustTracker(t, "rank objective=0.5 window=8 fast=4 slow=8 warn=1.5 crit=2 epsilon=0.05")
	bad := Sample{RankError: 1000, N: 10} // 1000 > 0.05·10
	good := Sample{RankError: 0, N: 10}

	// Two bad rounds then two good: fast window [b b g g] → fraction
	// 0.5 → burn 1; slow window has 2/8 → 0.5; min = 0.5. Spend 2/4.
	for i, s := range []Sample{bad, bad, good, good} {
		s.Round = i
		tr.Observe("k", s)
	}
	st := tr.StatusesFor("k")[0]
	if st.BurnFast != 1 || st.BurnSlow != 0.5 || st.Burn != 0.5 {
		t.Errorf("burns = fast %v slow %v min %v, want 1, 0.5, 0.5", st.BurnFast, st.BurnSlow, st.Burn)
	}
	if st.Bad != 2 || st.Spend != 0.5 {
		t.Errorf("budget = %d bad, spend %v, want 2, 0.5", st.Bad, st.Spend)
	}
	if st.Level != OK {
		t.Errorf("level = %v, want ok (burn 0.5 < warn 1.5)", st.Level)
	}
	if st.Rounds != 4 || st.Round != 3 {
		t.Errorf("rounds = %d at round %d, want 4 at 3", st.Rounds, st.Round)
	}
}

// TestMultiWindowAnd verifies the SRE multi-window AND: a short burst
// trips only the fast window (no alert); sustained burn trips both.
func TestMultiWindowAnd(t *testing.T) {
	tr := mustTracker(t, "rank objective=0.9 window=16 fast=4 slow=16 warn=2 crit=4 epsilon=0.05")
	bad := Sample{RankError: 100, N: 10}
	good := Sample{RankError: 0, N: 10}

	// One bad round: fast 1/4 /0.1 = 2.5 ≥ warn, slow 1/16 /0.1 =
	// 0.625 < warn → min below threshold, still OK.
	tr.Observe("k", bad)
	if st := tr.StatusesFor("k")[0]; st.Level != OK {
		t.Fatalf("one bad round: level %v, want ok (slow window filters the blip)", st.Level)
	}
	if len(tr.Log()) != 0 {
		t.Fatalf("blip logged an event: %+v", tr.Log())
	}

	// Three more bad rounds: fast 4/4 → 10, slow 4/16 → 2.5; min 2.5
	// ≥ warn → Warn fires exactly once.
	for i := 0; i < 3; i++ {
		tr.Observe("k", bad)
	}
	if st := tr.StatusesFor("k")[0]; st.Level != Warn {
		t.Fatalf("sustained burn: level %v, want warn", st.Level)
	}
	if evs := tr.Log(); len(evs) != 1 || evs[0].Level != Warn || evs[0].Prev != OK {
		t.Fatalf("log = %+v, want one ok→warn transition", tr.Log())
	}

	// Recovery: good rounds push the fast window clean; the log gains
	// exactly one warn→ok event, not one per good round.
	for i := 0; i < 16; i++ {
		tr.Observe("k", good)
	}
	if st := tr.StatusesFor("k")[0]; st.Level != OK {
		t.Fatalf("after recovery: level %v, want ok", st.Level)
	}
	if evs := tr.Log(); len(evs) != 2 || evs[1].Level != OK || evs[1].Prev != Warn {
		t.Fatalf("log = %+v, want exactly ok→warn, warn→ok", tr.Log())
	}
}

func TestExemplarWindow(t *testing.T) {
	tr := mustTracker(t, "rank objective=0.5 window=8 fast=2 slow=4 warn=1.5 crit=2 epsilon=0.05")
	good := Sample{RankError: 0, N: 10}
	bad := Sample{RankError: 100, N: 10}

	// Rounds 0..3 good, 4..5 bad: fast [4 5] both bad → burn fast 2,
	// slow 2/4 → 1; min 1 < warn... use 2 more bads: rounds 4..7 bad →
	// slow 4/4 → 2 ≥ crit → the fast window [6 7] opens the exemplar.
	for r := 0; r < 4; r++ {
		s := good
		s.Round, s.Offset = r, int64(10+r)
		tr.Observe("k", s)
	}
	for r := 4; r < 8; r++ {
		s := bad
		s.Round, s.Offset = r, int64(10+r)
		tr.Observe("k", s)
	}
	evs := tr.Log()
	if len(evs) == 0 {
		t.Fatal("no transitions logged")
	}
	last := evs[len(evs)-1]
	if last.Level != Crit {
		t.Fatalf("last transition = %+v, want crit", last)
	}
	ex := last.Exemplar
	if ex == nil {
		t.Fatal("crit transition carries no exemplar")
	}
	if ex.ToRound != last.Round || ex.FromRound > ex.ToRound {
		t.Errorf("exemplar span %d..%d does not close at round %d", ex.FromRound, ex.ToRound, last.Round)
	}
	if want := int64(10 + ex.FromRound); ex.Offset != want {
		t.Errorf("exemplar offset = %d, want %d (the span-opening round's)", ex.Offset, want)
	}
	if !strings.Contains(last.Message, "crit") || !strings.Contains(last.Message, "rank") {
		t.Errorf("message %q lacks level/name", last.Message)
	}
}

// TestSuffixCountsMatchRecount checks the running bad counts over the
// shared ring against a naive recount of the run's newest fast, slow,
// and budget-window classifications, across a run boundary, for
// fast == slow, slow > window, and window > slow.
func TestSuffixCountsMatchRecount(t *testing.T) {
	for _, spec := range []string{
		"rank objective=0.5 window=6 fast=3 slow=3 epsilon=0.05",
		"rank objective=0.5 window=4 fast=2 slow=9 epsilon=0.05",
		"rank objective=0.5 window=11 fast=1 slow=5 epsilon=0.05",
	} {
		tr := mustTracker(t, spec)
		sp := tr.Specs()[0]
		rate := 1 - sp.Objective
		var hist []bool // this run's classifications, oldest first
		recount := func(size int) int {
			n := 0
			for _, bad := range hist[max(len(hist)-size, 0):] {
				if bad {
					n++
				}
			}
			return n
		}
		for i := 0; i < 200; i++ {
			if i == 97 {
				tr.StartRun("k")
				hist = nil
			}
			bad := (i*i+3*i)%7 < 3
			sm := Sample{Round: i, N: 10}
			if bad {
				sm.RankError = 100
			}
			tr.Observe("k", sm)
			st := tr.StatusesFor("k")[0]
			hist = append(hist, bad)
			if want := recount(sp.Window); st.Bad != want {
				t.Fatalf("%s round %d: budget bad = %d, recount %d", spec, i, st.Bad, want)
			}
			if want := float64(recount(sp.FastWindow)) / float64(sp.FastWindow) / rate; st.BurnFast != want {
				t.Fatalf("%s round %d: fast burn = %v, recount %v", spec, i, st.BurnFast, want)
			}
			if want := float64(recount(sp.SlowWindow)) / float64(sp.SlowWindow) / rate; st.BurnSlow != want {
				t.Fatalf("%s round %d: slow burn = %v, recount %v", spec, i, st.BurnSlow, want)
			}
		}
	}
}

func TestStartRunResets(t *testing.T) {
	tr := mustTracker(t, "rank objective=0.5 window=4 fast=2 slow=2 warn=1.5 crit=2 epsilon=0.05")
	bad := Sample{Round: 7, RankError: 100, N: 10}
	tr.Observe("k", bad)
	tr.Observe("k", bad)
	if st := tr.StatusesFor("k")[0]; st.Level != Crit || st.Bad != 2 {
		t.Fatalf("pre-reset: %+v", st)
	}
	logged := len(tr.Log())

	tr.StartRun("k")
	st := tr.StatusesFor("k")[0]
	if st.Level != OK || st.Bad != 0 || st.Rounds != 0 || st.Burn != 0 || st.Spend != 0 {
		t.Errorf("post-reset status not cold: %+v", st)
	}
	if len(tr.Log()) != logged {
		t.Errorf("StartRun discarded log: %d != %d", len(tr.Log()), logged)
	}
	tr.StartRun("unknown") // no-op, must not panic
}

func TestGaugesWorstAcrossSpecs(t *testing.T) {
	tr := mustTracker(t, "rank objective=0.5 window=4 fast=2 slow=2 warn=9 crit=9 epsilon=0.05; latency objective=0.5 window=4 fast=2 slow=2 warn=9 crit=9 ms=50")
	// Bad for rank (burn 1 after 1/2 windows → 1·2 = ... fraction 0.5
	// / 0.5 = 1), good for latency (burn 0): worst is the rank pair.
	tr.Observe("k", Sample{RankError: 100, N: 10, LatencyMs: 1})
	burn, spend := tr.Gauges("k")
	if burn != 1 {
		t.Errorf("worst burn = %v, want 1 (rank)", burn)
	}
	if spend != 0.5 {
		t.Errorf("worst spend = %v, want 0.5 (1 bad / budget 2)", spend)
	}
	if b, s := tr.Gauges("nope"); b != 0 || s != 0 {
		t.Errorf("unknown key gauges = %v, %v, want zeros", b, s)
	}
}

func TestSampleFromPoint(t *testing.T) {
	p := series.Point{Round: 9, RankError: 4, Deficit: 2, Staleness: 3, StepMs: 1.5}
	sm := SampleFromPoint(p, 60, 42)
	want := Sample{Round: 9, RankError: 4, N: 60, Degraded: true, Staleness: 3, LatencyMs: 1.5, Offset: 42}
	if sm != want {
		t.Errorf("SampleFromPoint = %+v, want %+v", sm, want)
	}
	if sm = SampleFromPoint(series.Point{}, 60, 0); sm.Degraded {
		t.Error("zero deficit read as degraded")
	}
}

func TestTrackerRejectsBadSpecs(t *testing.T) {
	if _, err := NewTracker(); err == nil {
		t.Error("NewTracker() accepted zero specs")
	}
	if _, err := NewTracker(Spec{Signal: "bogus"}); err == nil {
		t.Error("NewTracker accepted an invalid spec")
	}
	ok, _ := defaultSpec(SignalRank)
	if _, err := NewTracker(ok, ok); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
}

// TestTrackerConcurrent hammers one tracker from writer and reader
// goroutines; run under -race via the repo-wide race gate.
func TestTrackerConcurrent(t *testing.T) {
	tr := mustTracker(t, "rank; fresh; latency")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b"}[w%2]
			for i := 0; i < 200; i++ {
				tr.Observe(key, Sample{Round: i, RankError: i % 7, N: 60, LatencyMs: float64(i % 90)})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := 0
		for i := 0; i < 100; i++ {
			tr.Statuses()
			tr.Gauges("a")
			_, cur = tr.LogSince(cur)
		}
	}()
	wg.Wait()
	if got := len(tr.Keys()); got != 2 {
		t.Errorf("keys = %d, want 2", got)
	}
}

// TestTrackerObserveAllocatesNothing pins the per-round cost of a
// transition-free observe of a known key at zero heap allocations.
func TestTrackerObserveAllocatesNothing(t *testing.T) {
	tr := mustTracker(t, "rank; fresh; latency ms=50")
	round := 0
	step := func() {
		tr.Observe("k", Sample{Round: round, N: 60, LatencyMs: 1, Offset: int64(round)})
		round++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("%v allocs per observe, want 0", allocs)
	}
	if log := tr.Log(); len(log) != 0 {
		t.Fatalf("transition-free stream logged %d events", len(log))
	}
}
