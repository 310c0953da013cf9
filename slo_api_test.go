package wsnq_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"wsnq"
)

// sloScenario declares aggressive rank objectives over a lossy
// two-algorithm study, so burn-rate transitions (with exemplars) fire
// deterministically within 30 rounds.
const sloScenario = `scenario slo-diff
nodes 60
rounds 30
runs 1
seed 5
loss 0.08
algorithms IQ,HBC
slo rank epsilon=0.000001 objective=0.9 window=16 fast=2 slow=4 warn=1.5 crit=3
slo fresh
`

// TestSLOBudgetGolden pins the error-budget arithmetic through the
// public API: the budget size, the fast/slow/combined burn rates, the
// spend fraction, and the multi-window AND gating of the level.
func TestSLOBudgetGolden(t *testing.T) {
	specs, err := wsnq.ParseSLOSpecs("rank objective=0.99 window=512")
	if err != nil {
		t.Fatal(err)
	}
	if b := specs[0].Budget(); b < 5.119 || b > 5.121 {
		t.Errorf("budget of objective 0.99 over 512 rounds = %v, want 5.12", b)
	}

	// objective 0.5 → error rate 0.5, so burn = 2 × bad fraction;
	// window 8 → a budget of 4 bad rounds.
	slos, err := wsnq.NewSLOs("rank objective=0.5 window=8 fast=4 slow=8 warn=1.5 crit=2 epsilon=0.05")
	if err != nil {
		t.Fatal(err)
	}
	bad := wsnq.SLOSample{RankError: 1000, N: 10} // 1000 > εN = 0.5
	good := wsnq.SLOSample{RankError: 0, N: 10}

	// Four bad rounds: the fast window saturates (burn 2) but the slow
	// window sits at 4/8 (burn 1) — the AND keeps the level ok.
	var st []wsnq.SLOStatus
	round := 0
	for i := 0; i < 4; i++ {
		s := bad
		s.Round = round
		slos.Observe("k", s)
		st = slos.StatusesFor("k")
		round++
	}
	if st[0].BurnFast != 2 || st[0].BurnSlow != 1 || st[0].Burn != 1 {
		t.Errorf("after burst: fast %v slow %v min %v, want 2, 1, 1", st[0].BurnFast, st[0].BurnSlow, st[0].Burn)
	}
	if st[0].Level != wsnq.SLOOK {
		t.Errorf("after burst: level %v, want ok (slow window gates the page)", st[0].Level)
	}
	if st[0].Bad != 4 || st[0].Spend != 1 {
		t.Errorf("after burst: %d bad, spend %v, want 4 bad = 100%% of budget", st[0].Bad, st[0].Spend)
	}

	// Four more: both windows saturate, burn 2 ≥ crit, spend 200%.
	for i := 0; i < 4; i++ {
		s := bad
		s.Round = round
		slos.Observe("k", s)
		st = slos.StatusesFor("k")
		round++
	}
	if st[0].Burn != 2 || st[0].Level != wsnq.SLOCrit || st[0].Spend != 2 {
		t.Errorf("sustained: burn %v level %v spend %v, want 2, crit, 2", st[0].Burn, st[0].Level, st[0].Spend)
	}
	// The slow window crosses warn (6/8 → burn 1.5) two rounds before
	// both windows saturate into crit: ok→warn→crit, each logged once,
	// each above-OK transition carrying an exemplar.
	evs := slos.Log()
	if len(evs) != 2 || evs[0].Level != wsnq.SLOWarn || evs[1].Level != wsnq.SLOCrit {
		t.Fatalf("log = %+v, want the ok→warn→crit escalation", evs)
	}
	if evs[0].Exemplar == nil || evs[1].Exemplar == nil {
		t.Fatalf("escalation transitions missing exemplars: %+v", evs)
	}

	// Recovery: good rounds drain the burn windows and — the budget
	// being a rolling window too — eventually the ledger itself.
	for i := 0; i < 8; i++ {
		s := good
		s.Round = round
		slos.Observe("k", s)
		st = slos.StatusesFor("k")
		round++
	}
	if st[0].Burn != 0 || st[0].Level != wsnq.SLOOK {
		t.Errorf("after recovery: burn %v level %v, want 0, ok", st[0].Burn, st[0].Level)
	}
	if st[0].Bad != 0 || st[0].Spend != 0 || st[0].Rounds != 16 {
		t.Errorf("rolled ledger = %d bad, spend %v over %d rounds, want clean after a full good window",
			st[0].Bad, st[0].Spend, st[0].Rounds)
	}
	// De-escalation is stepwise and logged like escalation: crit→warn
	// as the fast window drains, warn→ok once the slow window follows;
	// only the final ok transition is exemplar-free.
	evs = slos.Log()
	want := []wsnq.SLOLevel{wsnq.SLOWarn, wsnq.SLOCrit, wsnq.SLOWarn, wsnq.SLOOK}
	if len(evs) != len(want) {
		t.Fatalf("log = %+v, want levels %v", evs, want)
	}
	for i, lv := range want {
		if evs[i].Level != lv {
			t.Fatalf("transition %d = %v, want %v (full log %+v)", i, evs[i].Level, lv, evs)
		}
		if hasEx := evs[i].Exemplar != nil; hasEx != (lv != wsnq.SLOOK) {
			t.Errorf("transition %d (%v) exemplar presence = %v", i, lv, hasEx)
		}
	}
}

// TestSLOLiveReplayDifferential is the SLO determinism contract: a
// live scenario run, the run that produced a recording, and the
// recording's replay must agree on every budget status, every
// burn-rate transition (exemplar offsets included), and the outcome
// hash the slo/sloevent lines feed.
func TestSLOLiveReplayDifferential(t *testing.T) {
	sc, err := wsnq.ParseScenario(sloScenario)
	if err != nil {
		t.Fatal(err)
	}
	live, err := wsnq.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.SLO()) == 0 {
		t.Fatal("live run produced no SLO statuses")
	}
	if len(live.SLOEvents()) == 0 {
		t.Fatal("live run fired no burn-rate transitions — the differential is vacuous")
	}

	var buf bytes.Buffer
	recorded, err := wsnq.RecordScenario(context.Background(), sc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Hash() != live.Hash() {
		t.Fatalf("recording changed the live outcome: %s vs %s", recorded.Hash(), live.Hash())
	}

	replayed, err := wsnq.ReplayRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.SLO(), live.SLO()) {
		t.Errorf("replayed budget trajectory differs from live:\n got %+v\nwant %+v",
			replayed.SLO(), live.SLO())
	}
	if !reflect.DeepEqual(replayed.SLOEvents(), live.SLOEvents()) {
		t.Errorf("replayed burn-rate transitions differ from live:\n got %+v\nwant %+v",
			replayed.SLOEvents(), live.SLOEvents())
	}
	if replayed.Hash() != live.Hash() {
		t.Errorf("replay hash %s != live hash %s", replayed.Hash(), live.Hash())
	}

	// Exemplar-linked debugging: the first transition's round window
	// must replay in isolation — the workflow behind
	// `wsnq-sim -replay -replay-window FROM:TO`.
	ex := live.SLOEvents()[0].Exemplar
	if ex == nil || ex.Offset == 0 {
		t.Fatalf("first transition carries no usable exemplar: %+v", live.SLOEvents()[0])
	}
	windowed, err := wsnq.ReplayWindow(bytes.NewReader(buf.Bytes()), ex.FromRound, ex.ToRound)
	if err != nil {
		t.Fatal(err)
	}
	if !windowed.Replayed() {
		t.Error("windowed outcome not marked replayed")
	}
	if len(windowed.Verdicts()) == 0 {
		t.Error("exemplar window replayed no rounds")
	}
}

// TestSLOOverheadGuard enforces the ≤2% budget for per-round SLO
// evaluation on the serve step path: two registries host the same
// single query over identical fleets, one with the three standard
// objectives attached and one without, alternated rep by rep with the
// per-side minimum filtering scheduler noise. Opt-in (SLO_GUARD=1)
// because wall-clock ratios are meaningless on loaded CI machines; the
// cross-session ServeSLOEval entry in the bench JSON guards the
// evaluation cost continuously.
//
//	SLO_GUARD=1 go test -run TestSLOOverheadGuard .
func TestSLOOverheadGuard(t *testing.T) {
	if os.Getenv("SLO_GUARD") != "1" {
		t.Skip("timing guard; set SLO_GUARD=1 to run")
	}
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30 // driven by the registry clock
	cfg.Runs = 1

	newServer := func(sloSpec string) *wsnq.Server {
		srv := wsnq.NewServer(wsnq.ServerConfig{SLO: sloSpec})
		if err := srv.AddFleet("fleet0", cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: wsnq.IQ}); err != nil {
			t.Fatal(err)
		}
		srv.Advance() // initialization round
		return srv
	}
	plain := newServer("")
	objectives := newServer("rank; fresh; latency")

	bench := func(srv *wsnq.Server) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				srv.Advance()
			}
		})
		return float64(r.NsPerOp())
	}
	var base, slo float64
	for rep := 0; rep < 6; rep++ {
		if b := bench(plain); rep == 0 || b < base {
			base = b
		}
		if s := bench(objectives); rep == 0 || s < slo {
			slo = s
		}
	}
	overhead := slo/base - 1
	t.Logf("plain %.0f ns/op, with objectives %.0f ns/op, overhead %+.2f%%", base, slo, 100*overhead)
	if overhead > 0.02 {
		t.Errorf("SLO evaluation costs %.2f%% on the serve step (> 2%% budget)", 100*overhead)
	}
}
