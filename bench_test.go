// Benchmarks regenerating the paper's evaluation artifacts (one per
// figure, plus the extension and ablation studies) and micro-benchmarks
// of per-round protocol cost.
//
// Each figure benchmark runs the corresponding parameter sweep at a
// reduced scale (override with WSNQ_BENCH_SCALE, 1.0 = the paper's
// 20 runs × 250 rounds), logs the result tables (visible with -v), and
// reports the headline metric of the default row so regressions in the
// simulated protocols show up in benchmark diffs.
package wsnq

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchScale reads the sweep scale (default 0.1).
func benchScale() float64 {
	if s := os.Getenv("WSNQ_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// benchParallelism reads the engine worker bound (default 0 = one per
// CPU; set WSNQ_BENCH_PAR=1 to reproduce the old sequential timings).
func benchParallelism() int {
	if s := os.Getenv("WSNQ_BENCH_PAR"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 0 {
			return v
		}
	}
	return 0
}

// benchFigure runs one figure sweep per iteration and logs its tables.
func benchFigure(b *testing.B, id string, metrics ...string) {
	b.Helper()
	if len(metrics) == 0 {
		metrics = []string{MetricEnergy, MetricLifetime}
	}
	opts := FigureOptions{Scale: benchScale(), Parallelism: benchParallelism()}
	var tables []*Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = RunFigure(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		for _, m := range metrics {
			b.Logf("\n%s", t.Format(m))
		}
	}
	// Report the first and last algorithm of the middle row so the
	// series shape is tracked across benchmark runs.
	t := tables[0]
	row := t.Rows[len(t.Rows)/2]
	for _, col := range []string{t.Cols[0], t.Cols[len(t.Cols)-1]} {
		if m, ok := t.Cell(row, col); ok {
			unit := strings.ReplaceAll(col, " ", "_") + "-µJ/round"
			b.ReportMetric(m.MaxNodeEnergyPerRound*1e6, unit)
		}
	}
}

// BenchmarkFig6VaryN reproduces Figure 6: synthetic dataset, varying
// the node count |N| ∈ {125, 250, 500, 1000, 2000}.
func BenchmarkFig6VaryN(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7VaryPeriod reproduces Figure 7: synthetic dataset,
// varying the sinusoid period τ ∈ {250, 125, 63, 32, 8} rounds.
func BenchmarkFig7VaryPeriod(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8VaryNoise reproduces Figure 8: synthetic dataset,
// varying the measurement noise ψ ∈ {0, 5, 10, 20, 50} percent.
func BenchmarkFig8VaryNoise(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9VaryRange reproduces Figure 9: synthetic dataset,
// varying the radio range ρ ∈ {15, 35, 60, 85} m.
func BenchmarkFig9VaryRange(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10Pressure reproduces Figure 10: the air-pressure
// dataset, varying the sampling skip ∈ {1, 2, 4, 8, 16} under both the
// optimistic and the pessimistic universe scaling (energy panels only,
// as in the paper).
func BenchmarkFig10Pressure(b *testing.B) { benchFigure(b, "fig10", MetricEnergy) }

// BenchmarkFig4XiTrace reproduces Figure 4: IQ's adaptive interval Ξ
// tracked over 125 rounds of air-pressure data; reports how many rounds
// needed a refinement.
func BenchmarkFig4XiTrace(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 300
	cfg.Rounds = 125
	cfg.Runs = 1
	cfg.Dataset = Dataset{Kind: PressureData}
	refinements := 0
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulation(cfg, IQ)
		if err != nil {
			b.Fatal(err)
		}
		refinements = 0
		prevConv := 0
		for t := 0; t < cfg.Rounds; t++ {
			res, err := sim.Step()
			if err != nil {
				b.Fatal(err)
			}
			if res.Quantile != res.Oracle {
				b.Fatalf("round %d: inexact answer", t)
			}
			if t > 0 && res.Convergecasts-prevConv >= 2 {
				refinements++
			}
			prevConv = res.Convergecasts
		}
	}
	b.ReportMetric(float64(refinements), "refinements/125rounds")
}

// BenchmarkExtLossRankError runs the §6 future-work study: per-hop
// message loss against the rank error of the continuous algorithms.
func BenchmarkExtLossRankError(b *testing.B) {
	benchFigure(b, "loss", MetricRankError, MetricEnergy)
}

// BenchmarkExtAdaptive measures the adaptive switcher against its two
// component strategies across the period sweep.
func BenchmarkExtAdaptive(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 200
	cfg.Rounds = 100
	cfg.Runs = 2
	var results [3]Metrics
	for i := 0; i < b.N; i++ {
		for j, alg := range []Algorithm{IQ, HBC, Adaptive} {
			m, err := Run(cfg, alg)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = m
		}
	}
	b.ReportMetric(results[0].MaxNodeEnergyPerRound*1e6, "IQ-µJ/round")
	b.ReportMetric(results[1].MaxNodeEnergyPerRound*1e6, "HBC-µJ/round")
	b.ReportMetric(results[2].MaxNodeEnergyPerRound*1e6, "ADAPT-µJ/round")
}

// BenchmarkExtApprox compares the exact continuous algorithms against
// the approximate (q-digest) and probabilistic (sampling) classes of
// §3.1, on both energy and rank error.
func BenchmarkExtApprox(b *testing.B) {
	benchFigure(b, "ext-approx", MetricEnergy, MetricRankError)
}

// BenchmarkAblBucketCount is the bucket-count ablation: HBC with fixed
// b against the cost model's choice.
func BenchmarkAblBucketCount(b *testing.B) { benchFigure(b, "abl-buckets", MetricEnergy) }

// BenchmarkAblHints compares the hint encodings of §5.1.6 across noise
// levels for POS and IQ.
func BenchmarkAblHints(b *testing.B) { benchFigure(b, "abl-hints", MetricEnergy) }

// BenchmarkAblTree compares Euclidean-SPT against hop-count-BFS routing
// for every algorithm.
func BenchmarkAblTree(b *testing.B) { benchFigure(b, "abl-tree", MetricEnergy) }

// BenchmarkAblHBCVariants compares HBC with the §4.1.2
// threshold-broadcast elimination across periods.
func BenchmarkAblHBCVariants(b *testing.B) { benchFigure(b, "abl-hbcnb", MetricEnergy) }

// BenchmarkAblIQWindow sweeps IQ's trend-window length m and ξ seeding.
func BenchmarkAblIQWindow(b *testing.B) { benchFigure(b, "abl-xi", MetricEnergy) }

// benchCompare times a Runs=20 comparison of the §5.1.6 line-up on
// shared deployments at the given parallelism.
func benchCompare(b *testing.B, parallelism int) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 200
	cfg.Rounds = 100
	cfg.Runs = 20
	for i := 0; i < b.N; i++ {
		if _, err := CompareContext(context.Background(), cfg, StandardAlgorithms(), WithParallelism(parallelism)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareSequential is the engine's speedup baseline: the
// Runs=20 standard comparison forced onto a single worker.
func BenchmarkCompareSequential(b *testing.B) { benchCompare(b, 1) }

// BenchmarkCompareParallel is the same comparison with one worker per
// CPU; the ratio to BenchmarkCompareSequential is the engine speedup.
func BenchmarkCompareParallel(b *testing.B) { benchCompare(b, 0) }

// --- micro-benchmarks: per-round protocol cost in the simulator ---

func benchRounds(b *testing.B, alg Algorithm) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30 // stepped manually
	cfg.Runs = 1
	sim, err := NewSimulation(cfg, alg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Step(); err != nil { // initialization round
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTAG measures one simulated TAG round at |N| = 500.
func BenchmarkRoundTAG(b *testing.B) { benchRounds(b, TAG) }

// BenchmarkRoundPOS measures one simulated POS round at |N| = 500.
func BenchmarkRoundPOS(b *testing.B) { benchRounds(b, POS) }

// BenchmarkRoundLCLLH measures one simulated LCLL-H round at |N| = 500.
func BenchmarkRoundLCLLH(b *testing.B) { benchRounds(b, LCLLH) }

// BenchmarkRoundLCLLS measures one simulated LCLL-S round at |N| = 500.
func BenchmarkRoundLCLLS(b *testing.B) { benchRounds(b, LCLLS) }

// BenchmarkRoundHBC measures one simulated HBC round at |N| = 500.
func BenchmarkRoundHBC(b *testing.B) { benchRounds(b, HBC) }

// BenchmarkRoundIQ measures one simulated IQ round at |N| = 500.
func BenchmarkRoundIQ(b *testing.B) { benchRounds(b, IQ) }

// BenchmarkExtSnapshot compares the continuous algorithms against
// re-running the [21] snapshot search every round.
func BenchmarkExtSnapshot(b *testing.B) { benchFigure(b, "ext-snapshot", MetricEnergy) }

// BenchmarkAblEnergyModel compares nominal-range charging (the paper's
// cost function) against actual-link-distance charging.
func BenchmarkAblEnergyModel(b *testing.B) { benchFigure(b, "abl-energy", MetricEnergy) }

// BenchmarkAblDensity sweeps the value-distribution spread at fast
// drift, probing where dense values make IQ's Ξ expensive.
func BenchmarkAblDensity(b *testing.B) { benchFigure(b, "abl-density", MetricEnergy) }
