package wsnq_test

import (
	"fmt"
	"testing"

	"wsnq/internal/alert"
	"wsnq/internal/core"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// TestGoldenRecoveryStudy is the pinned chaos scenario of the fault
// subsystem: a 60-node deployment whose highest-load relay (the
// non-leaf node carrying the largest subtree) crashes mid-run and
// recovers twelve rounds later. The flight-recorder stream and the
// alert log must tell the full recovery story:
//
//   - the orphaned children re-parent within the dead-parent timeout,
//   - answers are degraded only while coverage is actually missing,
//   - exact answers return once the node recovers and the protocol
//     re-initializes,
//   - the orphan alert fires during the gap and clears afterwards.
func TestGoldenRecoveryStudy(t *testing.T) {
	const (
		crashAt   = 15
		recoverAt = 27
		rounds    = 40
	)
	cfg := experiment.Default()
	cfg.Nodes = 60
	cfg.RadioRange = 45
	cfg.Rounds = rounds
	cfg.Runs = 1
	cfg.Seed = 11
	cfg.Dataset.Synthetic.Universe = 1 << 12

	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The high-load relay: the node whose subtree carries the most
	// measurements (ties broken by id for reproducibility).
	top := dep.Topology()
	size := make([]int, top.N())
	for _, u := range top.PostOrder {
		size[u] = 1
		for _, c := range top.Children[u] {
			size[u] += size[c]
		}
	}
	relay := -1
	for u := 0; u < top.N(); u++ {
		if len(top.Children[u]) == 0 {
			continue
		}
		if relay == -1 || size[u] > size[relay] {
			relay = u
		}
	}
	if relay < 0 {
		t.Fatal("no relay in the deployment")
	}

	plan, err := fault.Parse(fmt.Sprintf("crash@%d-%d:n%d", crashAt, recoverAt, relay))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := alert.ParseRules("orphan")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := alert.NewEngine(rules...)
	if err != nil {
		t.Fatal(err)
	}
	st := series.New(0)
	rec := trace.NewRecorder()

	rt, err := dep.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetTrace(trace.Multi(rec, st.IngestTotals("IQ", experiment.SeriesSampler(rt), eng.Observe)))
	if err := rt.SetFaults(plan, cfg.Seed, sim.DefaultARQ()); err != nil {
		t.Fatal(err)
	}

	// The standard recovery contract: a pending repair/recovery flag or
	// a Step desynchronization replays Init over reliable links.
	alg := core.NewIQ(core.DefaultIQOptions())
	k := cfg.K()
	reinit := func() (int, error) {
		rt.SetFaultReliable(true)
		defer rt.SetFaultReliable(false)
		return alg.Init(rt, k)
	}
	q, err := reinit()
	if err != nil {
		t.Fatal(err)
	}
	rt.TraceDecision(k, q)
	for r := 1; r < rounds; r++ {
		rt.AdvanceRound()
		if rt.ConsumeReinit() {
			q, err = reinit()
		} else if q, err = alg.Step(rt); err != nil {
			q, err = reinit()
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		rt.TraceDecision(k, q)
	}
	rt.EndTrace()

	// 1. The schedule executed: crash at crashAt, recovery at recoverAt.
	var sawCrash, sawRecover bool
	firstReparent := -1
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindCrash:
			if e.Node != relay {
				t.Errorf("round %d: unscheduled crash event for node %d", e.Round, e.Node)
				continue
			}
			if e.Aux == 1 {
				sawCrash = true
				if e.Round != crashAt {
					t.Errorf("crash at round %d, scheduled %d", e.Round, crashAt)
				}
			} else {
				sawRecover = true
				if e.Round != recoverAt {
					t.Errorf("recovery at round %d, scheduled %d", e.Round, recoverAt)
				}
			}
		case trace.KindReparent:
			if firstReparent == -1 {
				firstReparent = e.Round
			}
			if e.Aux != relay && e.Peer != relay {
				t.Errorf("round %d: node %d re-parented %d->%d without touching the crashed relay",
					e.Round, e.Node, e.Aux, e.Peer)
			}
		}
	}
	if !sawCrash || !sawRecover {
		t.Fatalf("crash/recovery events missing (crash %v, recover %v)", sawCrash, sawRecover)
	}

	// 2. Orphaned children re-parent within the dead-parent timeout.
	deadline := crashAt + sim.DefaultARQ().DeadAfter + 1
	if firstReparent == -1 {
		t.Error("no re-parenting traced — tree repair never ran")
	} else if firstReparent > deadline {
		t.Errorf("first re-parent at round %d, want <= %d", firstReparent, deadline)
	}

	// 3. Degraded answers exactly while coverage is missing, exact
	// decisions everywhere else.
	degradedRounds := map[int]bool{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindDegraded {
			degradedRounds[e.Round] = true
			if e.Round < crashAt || e.Round >= recoverAt {
				t.Errorf("degraded answer at round %d, outside the crash window [%d,%d)", e.Round, crashAt, recoverAt)
			}
			if e.Aux < 1 {
				t.Errorf("round %d: degraded answer with staleness %d", e.Round, e.Aux)
			}
		}
	}
	for r := crashAt; r < recoverAt; r++ {
		if !degradedRounds[r] {
			t.Errorf("round %d inside the crash window answered without a degraded tag", r)
		}
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindDecision && !degradedRounds[e.Round] && e.Err != 0 {
			t.Errorf("round %d: fully covered decision has rank error %d", e.Round, e.Err)
		}
	}

	// 4. The orphan alert warned during the gap and cleared afterwards.
	var warnRound, clearRound = -1, -1
	for _, ev := range eng.Log() {
		if ev.Rule != "orphan" {
			continue
		}
		switch {
		case ev.Level == alert.Warn && warnRound == -1:
			warnRound = ev.Round
		case ev.Level == alert.OK:
			clearRound = ev.Round
		}
	}
	if warnRound < crashAt || warnRound > deadline {
		t.Errorf("orphan alert warned at round %d, want within [%d,%d]", warnRound, crashAt, deadline)
	}
	if clearRound <= warnRound {
		t.Errorf("orphan alert never cleared (warn %d, clear %d)", warnRound, clearRound)
	}
	for _, s := range eng.States() {
		if s.Rule == "orphan" && s.Level != alert.OK {
			t.Errorf("orphan alert still %v at the end of the study", s.Level)
		}
	}
}
