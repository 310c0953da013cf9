package experiment

import (
	"context"
	"sort"
	"strings"
	"testing"

	"wsnq/internal/baseline"
	"wsnq/internal/core"
	"wsnq/internal/protocol"
)

// smallCfg shrinks the default cell so tests stay fast.
func smallCfg() Config {
	cfg := Default()
	cfg.Nodes = 60
	cfg.RadioRange = 45
	cfg.Rounds = 40
	cfg.Runs = 2
	cfg.Dataset.Synthetic.Universe = 1 << 12
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.Area = 0 },
		func(c *Config) { c.RadioRange = -1 },
		func(c *Config) { c.Phi = 0 },
		func(c *Config) { c.Phi = 1.5 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.LossProb = 1 },
	}
	for i, mut := range cases {
		cfg := Default()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestKComputation(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 500
	if cfg.K() != 250 {
		t.Errorf("median k = %d, want 250", cfg.K())
	}
	cfg.Phi = 0.001
	if cfg.K() != 1 {
		t.Errorf("tiny phi k = %d, want 1", cfg.K())
	}
	cfg.Phi = 1
	if cfg.K() != 500 {
		t.Errorf("phi=1 k = %d, want 500", cfg.K())
	}
}

func TestRunProducesExactResultsAndMetrics(t *testing.T) {
	cfg := smallCfg()
	m, err := Run(cfg, func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != cfg.Rounds*cfg.Runs {
		t.Errorf("rounds = %d, want %d", m.Rounds, cfg.Rounds*cfg.Runs)
	}
	if m.ExactRounds != m.Rounds {
		t.Errorf("loss-free run not exact: %d/%d", m.ExactRounds, m.Rounds)
	}
	if m.MeanRankError != 0 {
		t.Errorf("rank error %v on loss-free run", m.MeanRankError)
	}
	if m.MaxNodeEnergyPerRound <= 0 || m.TotalEnergy <= 0 {
		t.Errorf("energy metrics empty: %+v", m)
	}
	if m.LifetimeRounds <= 0 {
		t.Errorf("lifetime = %v", m.LifetimeRounds)
	}
}

func TestRunOrderingTAGWorst(t *testing.T) {
	// The paper's headline shape: TAG consumes far more hotspot energy
	// than the continuous approaches on temporally correlated data.
	cfg := smallCfg()
	tag, err := Run(cfg, func() protocol.Algorithm { return baseline.NewTAG() })
	if err != nil {
		t.Fatal(err)
	}
	iq, err := Run(cfg, func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	if iq.MaxNodeEnergyPerRound >= tag.MaxNodeEnergyPerRound {
		t.Errorf("IQ hotspot energy %v should be below TAG %v",
			iq.MaxNodeEnergyPerRound, tag.MaxNodeEnergyPerRound)
	}
	if iq.LifetimeRounds <= tag.LifetimeRounds {
		t.Errorf("IQ lifetime %v should exceed TAG %v", iq.LifetimeRounds, tag.LifetimeRounds)
	}
}

func TestRunWithLossReportsRankError(t *testing.T) {
	cfg := smallCfg()
	cfg.LossProb = 0.05
	cfg.Runs = 1
	m, err := Run(cfg, func() protocol.Algorithm { return baseline.NewPOS(baseline.DefaultPOSOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	// Loss may or may not corrupt results on a short run, but the
	// bookkeeping must be consistent.
	if m.ExactRounds > m.Rounds {
		t.Errorf("exact rounds %d > rounds %d", m.ExactRounds, m.Rounds)
	}
	if m.MeanRankError < 0 {
		t.Errorf("negative rank error %v", m.MeanRankError)
	}
}

func TestPressureDatasetRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.Dataset = DatasetSpec{Kind: Pressure, Skip: 2, Pessimistic: true}
	cfg.Rounds = 25
	// Small SOM placements cluster heavily; a wider radio keeps the
	// disc graph connected at this node count.
	cfg.RadioRange = 70
	m, err := Run(cfg, func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	if m.ExactRounds != m.Rounds {
		t.Errorf("pressure run not exact: %d/%d", m.ExactRounds, m.Rounds)
	}
}

func TestSweepAndFormat(t *testing.T) {
	cfg := smallCfg()
	cfg.Rounds = 20
	cfg.Runs = 1
	variants := []Variant{
		{Label: "40", Mutate: func(c *Config) { c.Nodes = 40 }},
		{Label: "60", Mutate: func(c *Config) { c.Nodes = 60 }},
	}
	algs := []NamedFactory{
		{"TAG", func() protocol.Algorithm { return baseline.NewTAG() }},
		{"IQ", func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
	}
	tbl, err := sweep(cfg, "test sweep", "|N|", variants, algs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Variants) != 2 || len(tbl.Algorithms) != 2 {
		t.Fatalf("table shape %dx%d", len(tbl.Variants), len(tbl.Algorithms))
	}
	if _, ok := tbl.Cell("40", "IQ"); !ok {
		t.Fatal("missing cell")
	}
	out := tbl.Format(SelMaxEnergy)
	for _, want := range []string{"test sweep", "|N|", "TAG", "IQ", "40", "60"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	rank := tbl.ranking("60", SelMaxEnergy)
	if len(rank) != 2 || rank[0] != "IQ" {
		t.Errorf("ranking = %v, want IQ first", rank)
	}
}

func TestStandardAlgorithmsLineup(t *testing.T) {
	algs := StandardAlgorithms()
	want := []string{"TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ"}
	if len(algs) != len(want) {
		t.Fatalf("%d algorithms", len(algs))
	}
	for i, a := range algs {
		if a.Name != want[i] {
			t.Errorf("algorithm %d = %s, want %s", i, a.Name, want[i])
		}
		inst := a.New()
		if inst.Name() != want[i] {
			t.Errorf("instance name %s != %s", inst.Name(), want[i])
		}
	}
	cont := ContinuousAlgorithms()
	if len(cont) != 5 || cont[0].Name != "POS" {
		t.Errorf("continuous lineup wrong: %v", cont)
	}
}

// ranking returns the algorithms ordered best-first (lowest value) for
// one variant row under the given selector.
func (t *Table) ranking(variant string, sel MetricSelector) []string {
	algs := append([]string(nil), t.Algorithms...)
	sort.SliceStable(algs, func(i, j int) bool {
		mi, _ := t.Cell(variant, algs[i])
		mj, _ := t.Cell(variant, algs[j])
		return sel.Get(mi) < sel.Get(mj)
	})
	return algs
}

// sweep runs every (variant × algorithm) cell and collects a Table. It
// delegates to SweepContext with default engine options.
func sweep(base Config, title, rowLabel string, variants []Variant, algs []NamedFactory) (*Table, error) {
	return SweepContext(context.Background(), base, title, rowLabel, variants, algs, Options{})
}
