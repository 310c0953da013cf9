package wsnq

import (
	"context"
	"strings"
	"testing"
)

// quickCfg is a fast configuration for facade tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 80
	cfg.RadioRange = 45
	cfg.Rounds = 30
	cfg.Runs = 1
	cfg.Dataset.Universe = 1 << 12
	return cfg
}

func TestRunAllAlgorithmsExact(t *testing.T) {
	cfg := quickCfg()
	for _, alg := range Algorithms() {
		m, err := Run(cfg, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if m.ExactRounds != m.Rounds {
			t.Errorf("%s: %d/%d exact rounds", alg, m.ExactRounds, m.Rounds)
		}
		if m.MaxNodeEnergyPerRound <= 0 {
			t.Errorf("%s: zero energy", alg)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := Run(quickCfg(), Algorithm("NOPE")); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.Nodes = 0
	if _, err := Run(cfg, IQ); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = quickCfg()
	cfg.Dataset.Kind = "csv"
	if _, err := Run(cfg, IQ); err == nil {
		t.Error("unknown dataset kind accepted")
	}
}

func TestCompare(t *testing.T) {
	cfg := quickCfg()
	res, err := CompareContext(context.Background(), cfg, []Algorithm{TAG, IQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// The paper's headline: IQ beats TAG on hotspot energy and lifetime
	// under temporally correlated data.
	iq, _ := res.Get(IQ)
	tag, _ := res.Get(TAG)
	if iq.MaxNodeEnergyPerRound >= tag.MaxNodeEnergyPerRound {
		t.Errorf("IQ energy %v >= TAG %v", iq.MaxNodeEnergyPerRound, tag.MaxNodeEnergyPerRound)
	}
	if iq.LifetimeRounds <= tag.LifetimeRounds {
		t.Errorf("IQ lifetime %v <= TAG %v", iq.LifetimeRounds, tag.LifetimeRounds)
	}
}

func TestHeadlineOrdering(t *testing.T) {
	// §6: HBC outperforms POS and both LCLL variants in virtually all
	// cases; IQ outperforms HBC under temporal correlation. Check the
	// default (correlated) setting.
	cfg := quickCfg()
	cfg.Nodes = 250 // the ordering is about realistic network sizes
	cfg.RadioRange = 35
	cfg.Rounds = 60
	cfg.Runs = 2
	res, err := CompareContext(context.Background(), cfg, []Algorithm{POS, LCLLH, LCLLS, HBC, IQ})
	if err != nil {
		t.Fatal(err)
	}
	e := func(a Algorithm) float64 { m, _ := res.Get(a); return m.MaxNodeEnergyPerRound }
	if !(e(IQ) < e(HBC)) {
		t.Errorf("IQ (%v) should beat HBC (%v)", e(IQ), e(HBC))
	}
	if !(e(HBC) < e(POS) && e(HBC) < e(LCLLH) && e(HBC) < e(LCLLS)) {
		t.Errorf("HBC (%v) should beat POS (%v), LCLL-H (%v), LCLL-S (%v)",
			e(HBC), e(POS), e(LCLLH), e(LCLLS))
	}
}

func TestSimulationStepByStep(t *testing.T) {
	cfg := quickCfg()
	sim, err := NewSimulation(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if sim.N() != cfg.Nodes || sim.K() != cfg.K() {
		t.Errorf("N=%d K=%d", sim.N(), sim.K())
	}
	if sim.AlgorithmName() != "IQ" {
		t.Errorf("name = %s", sim.AlgorithmName())
	}
	var lastEnergy float64
	for i := 0; i < 20; i++ {
		res, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Round != i {
			t.Errorf("round %d reported as %d", i, res.Round)
		}
		if res.Quantile != res.Oracle {
			t.Errorf("round %d: %d != oracle %d", i, res.Quantile, res.Oracle)
		}
		if res.TotalEnergy < lastEnergy {
			t.Error("cumulative energy decreased")
		}
		lastEnergy = res.TotalEnergy
		if _, _, _, ok := sim.IQState(); !ok {
			t.Error("IQState not available on an IQ simulation")
		}
	}
	if len(sim.Readings()) != cfg.Nodes {
		t.Error("Readings length wrong")
	}
	if sim.NodeEnergy(0) < 0 {
		t.Error("negative node energy")
	}
	if sim.Exhausted() {
		t.Error("exhausted after 20 rounds")
	}
}

func TestSimulationIQStateOnlyForIQ(t *testing.T) {
	sim, err := NewSimulation(quickCfg(), HBC)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := sim.IQState(); ok {
		t.Error("IQState available on a non-IQ simulation")
	}
}

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) < 9 {
		t.Fatalf("only %d figures", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.Description == "" {
			t.Errorf("incomplete figure %+v", f)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
	for _, want := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "loss"} {
		if !seen[want] {
			t.Errorf("missing figure %s", want)
		}
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("fig99", FigureOptions{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in short mode")
	}
	tabs, err := RunFigure("abl-hbcnb", FigureOptions{Scale: 0.02, Nodes: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("%d tables", len(tabs))
	}
	tb := tabs[0]
	if len(tb.Rows) != 5 || len(tb.Cols) != 2 {
		t.Fatalf("table shape %dx%d", len(tb.Rows), len(tb.Cols))
	}
	out := tb.Format(MetricEnergy)
	if !strings.Contains(out, "HBC-NB") {
		t.Errorf("table missing HBC-NB:\n%s", out)
	}
	if got := tb.Format("bogus"); !strings.Contains(got, "unknown metric") {
		t.Errorf("bogus metric not rejected: %q", got)
	}
	rank := tb.Ranking(tb.Rows[0], MetricEnergy)
	if len(rank) != 2 {
		t.Errorf("ranking = %v", rank)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 500 || cfg.Rounds != 250 || cfg.Runs != 20 {
		t.Errorf("defaults drifted: %+v", cfg)
	}
	if cfg.Area != 200 || cfg.RadioRange != 35 {
		t.Errorf("geometry defaults drifted: %+v", cfg)
	}
	if cfg.Phi != 0.5 {
		t.Errorf("default query is not the median")
	}
	if cfg.K() != 250 {
		t.Errorf("k = %d", cfg.K())
	}
	sizes := DefaultSizes()
	if sizes.HeaderBits != 128 || sizes.PayloadBits != 1024 {
		t.Errorf("802.15.4-like sizes drifted: %+v", sizes)
	}
	en := DefaultEnergy()
	if en.InitialBudget != 30e-3 {
		t.Errorf("budget = %v", en.InitialBudget)
	}
}

func TestLossInjectionDegradesGracefully(t *testing.T) {
	cfg := quickCfg()
	cfg.Rounds = 50
	cfg.LossProb = 0.05
	m, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 50 {
		t.Errorf("rounds = %d", m.Rounds)
	}
	// With loss some rounds may be inexact, but the run completes and
	// the error must stay bounded on slowly drifting data.
	if m.MeanRankError > float64(cfg.Nodes)/4 {
		t.Errorf("rank error %v implausibly large", m.MeanRankError)
	}
}

func TestTraceDataset(t *testing.T) {
	// 30 nodes × 2 values per node: 60 drifting series.
	series := make([][]int, 60)
	for i := range series {
		row := make([]int, 25)
		v := 100 + i
		for j := range row {
			row[j] = v
			v += (i % 3) - 1
		}
		series[i] = row
	}
	cfg := Config{
		Nodes: 30, Area: 200, RadioRange: 60, Phi: 0.5,
		Rounds: 20, Runs: 2, Seed: 3, ValuesPerNode: 2,
		Dataset: Dataset{Kind: TraceData, Series: series, UniverseLo: 0, UniverseHi: 1023},
	}
	m, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExactRounds != m.Rounds {
		t.Errorf("trace run not exact: %d/%d", m.ExactRounds, m.Rounds)
	}
	// Series count mismatch must be rejected.
	cfg.ValuesPerNode = 1
	if _, err := Run(cfg, IQ); err == nil {
		t.Error("series count mismatch accepted")
	}
	// Universe not covering the data must be rejected.
	cfg.ValuesPerNode = 2
	cfg.Dataset.UniverseHi = 5
	if _, err := Run(cfg, IQ); err == nil {
		t.Error("bad universe accepted")
	}
}

func TestReadTraceCSVFacade(t *testing.T) {
	series, err := ReadTraceCSV(strings.NewReader("# hdr\n1,2,3\n4,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[1][2] != 6 {
		t.Errorf("parsed %v", series)
	}
	if _, err := ReadTraceCSV(strings.NewReader("1,x\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBFSTreeFacade(t *testing.T) {
	cfg := quickCfg()
	cfg.BFSTree = true
	m, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExactRounds != m.Rounds {
		t.Errorf("BFS run not exact: %d/%d", m.ExactRounds, m.Rounds)
	}
}

func TestPhaseAnatomy(t *testing.T) {
	cfg := quickCfg()
	cfg.Rounds = 40
	iq, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	hbc, err := Run(cfg, HBC)
	if err != nil {
		t.Fatal(err)
	}
	// Per-phase bits must sum to the total (per round).
	sum := func(m Metrics) float64 {
		s := 0.0
		for _, b := range m.PhaseBitsPerRound {
			s += b
		}
		return s
	}
	for _, m := range []Metrics{iq, hbc} {
		if s := sum(m); s < m.BitsPerRound*0.999 || s > m.BitsPerRound*1.001 {
			t.Errorf("phase bits %v != total %v", s, m.BitsPerRound)
		}
	}
	// The paper's mechanism: IQ trades refinement traffic for validation
	// payloads — its refinement share must undercut HBC's.
	share := func(m Metrics, ph string) float64 {
		return m.PhaseBitsPerRound[ph] / m.BitsPerRound
	}
	if share(iq, "refinement") >= share(hbc, "refinement") {
		t.Errorf("IQ refinement share %.2f should undercut HBC's %.2f",
			share(iq, "refinement"), share(hbc, "refinement"))
	}
	for _, ph := range []string{"init", "validation"} {
		if iq.PhaseBitsPerRound[ph] <= 0 {
			t.Errorf("IQ phase %q missing from anatomy: %v", ph, iq.PhaseBitsPerRound)
		}
	}
	// TAG's anatomy is pure collection after init.
	tag, err := Run(cfg, TAG)
	if err != nil {
		t.Fatal(err)
	}
	if tag.PhaseBitsPerRound["collect"] <= 0 || tag.PhaseBitsPerRound["refinement"] > 0 {
		t.Errorf("TAG anatomy wrong: %v", tag.PhaseBitsPerRound)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickCfg()
	a, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxNodeEnergyPerRound != b.MaxNodeEnergyPerRound ||
		a.TotalEnergy != b.TotalEnergy ||
		a.BitsPerRound != b.BitsPerRound {
		t.Errorf("identical seeds diverged: %+v vs %+v", a, b)
	}
	cfg.Seed++
	c, err := Run(cfg, IQ)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalEnergy == a.TotalEnergy {
		t.Error("different seeds produced identical totals (suspicious)")
	}
}
