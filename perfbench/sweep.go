package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"wsnq"
	"wsnq/internal/experiment"
)

// The sweep workload reproduces the paper's Figure 7 through the public
// figure entry point: 5 drift periods × the 6 standard algorithms at
// |N| = 500, loss-free, no observers. Scale 0.05 makes each cell one
// run of 40 rounds, so one pass is short enough to repeat many times
// in a run.
const (
	sweepSets = 5
	// sweepMinCycles makes every set's latency quantiles rest on at
	// least eight passes.
	sweepMinCycles = 8
	sweepScale     = 0.05
	sweepNodes     = 500
	sweepRuns      = 1
	// sweepRounds is what FigureOptions makes of sweepScale.
	sweepRounds = 40
)

// sweepPinned is the digest of set 0's Figure 7 table at the default
// seed.
const sweepPinned = "18ab54b11ec7ab92f2b61af28969b291eeeca38fa942626531e72bdb2323a95f"

var sweepPeriods = []int{250, 125, 63, 32, 8}

// sweepConfigs are the figure's cells as experiment configurations,
// built the way FigureOptions builds them.
func sweepConfigs(seed int64) []experiment.Config {
	out := make([]experiment.Config, len(sweepPeriods))
	for i, p := range sweepPeriods {
		cfg := experiment.Default()
		cfg.Nodes, cfg.Runs, cfg.Rounds, cfg.Seed = sweepNodes, sweepRuns, sweepRounds, seed
		cfg.Dataset.Synthetic.Period = p
		out[i] = cfg
	}
	return out
}

// tableDigest hashes every cell's answer-quality and simulated-cost
// figures, including the sim layer's frames, bits and values per round,
// in row and column order.
func tableDigest(t *wsnq.Table) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range t.Rows {
		for _, col := range t.Cols {
			m, _ := t.Cell(row, col)
			fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%s|%s|%d|%d|%s|%s|%s|", row, col,
				f(m.MaxNodeEnergyPerRound), f(m.LifetimeRounds), f(m.TotalEnergy),
				f(m.ValuesPerRound), f(m.FramesPerRound), f(m.BitsPerRound),
				m.ExactRounds, m.Rounds, f(m.MeanRankError), f(m.EnergyGini), f(m.HotspotToMedianRatio))
			phases := make([]string, 0, len(m.PhaseBitsPerRound))
			for ph := range m.PhaseBitsPerRound {
				phases = append(phases, ph)
			}
			sort.Strings(phases)
			for _, ph := range phases {
				fmt.Fprintf(h, "%s=%s|", ph, f(m.PhaseBitsPerRound[ph]))
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkTable verifies every cell is exact and returns the table's
// digest and simulated node-rounds.
func checkTable(res *result, t *wsnq.Table) (digest string, nodeRounds float64) {
	cells := 0
	for _, row := range t.Rows {
		for _, col := range t.Cols {
			m, ok := t.Cell(row, col)
			if !ok || m.Rounds == 0 {
				res.check(false, "sweep: cell %s/%s missing", row, col)
				continue
			}
			cells++
			res.check(m.ExactRounds == m.Rounds && m.MeanRankError == 0,
				"sweep: cell period=%s %s: %d of %d rounds exact, rank error %g", row, col, m.ExactRounds, m.Rounds, m.MeanRankError)
			nodeRounds += float64(m.Rounds * sweepNodes)
		}
	}
	res.check(cells == len(sweepPeriods)*len(wsnq.StandardAlgorithms()), "sweep: %d cells, want %d", cells, len(sweepPeriods)*len(wsnq.StandardAlgorithms()))
	return tableDigest(t), nodeRounds
}

func runSweep(ctx context.Context, e *env, res *result) error {
	// Every pass reproduces the figure for one of sweepSets seeds, so a
	// run averages the cost of 5 × sweepSets random deployments; the
	// metrics average the per-set medians and quantiles.
	seeds := make([]int64, sweepSets)
	for i := range seeds {
		seeds[i] = derive(e.seed, fmt.Sprintf("sweep/%d", i))
	}

	// Set-up: the deployments (topology, routing tree and measurement
	// source) of every cell of every set, built several times.
	setup, err := setupMedian(3, func() error {
		for _, seed := range seeds {
			for _, cfg := range sweepConfigs(seed) {
				sp := e.tr.begin("experiment.deployment")
				if _, err := experiment.BuildDeployment(cfg, 0); err != nil {
					return err
				}
				e.tr.end(sp)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup)
	res.set("experiment.deployment_ms", median(e.tr.durations("experiment.deployment", time.Millisecond)))

	// pass runs the figure once and returns its table, its wall-clock
	// time and the CPU time the process spent on it. RunFigureContext
	// builds every cell's deployment and initializes every protocol
	// itself, so a pass also repeats the work setup_s times.
	pass := func(seed int64) (*wsnq.Table, time.Duration, time.Duration, error) {
		opts := wsnq.FigureOptions{Scale: sweepScale, Nodes: sweepNodes, Seed: seed, Parallelism: e.nproc}
		sp := e.tr.begin("experiment.figure")
		start, c0 := time.Now(), cpuTime()
		tables, err := wsnq.RunFigureContext(ctx, "fig7", opts)
		d, c := time.Since(start), cpuTime()-c0
		e.tr.end(sp)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(tables) != 1 {
			return nil, 0, 0, fmt.Errorf("fig7 returned %d tables", len(tables))
		}
		return tables[0], d, c, nil
	}

	// Warm-up pass on set 0, whose digest is pinned at the default seed.
	t0, _, _, err := pass(seeds[0])
	if err != nil {
		return err
	}
	digest0, _ := checkTable(res, t0)
	if e.seed == defaultSeed {
		res.check(digest0 == sweepPinned, "sweep: table digest %s, pinned %s", digest0, sweepPinned)
	}
	res.note("sweep: set 0 table digest %s", digest0)

	// Timed cycles over every set; each set's later passes must repeat
	// its first digest.
	digests := make([]string, sweepSets)
	digests[0] = digest0
	var (
		cpu, rates                 = make(perSet, sweepSets), make(perSet, sweepSets)
		wall, wallRates            = make(perSet, sweepSets), make(perSet, sweepSets)
		nodeRounds                 float64
		reinits, repairs, degraded int
	)
	heap := startHeapSampler()
	start := time.Now()
	m0 := e.mem.read()
	for cycle := 0; cycle < sweepMinCycles || time.Since(start) < e.seconds; cycle++ {
		for i, seed := range seeds {
			t, d, c, err := pass(seed)
			if err != nil {
				return err
			}
			got, nr := checkTable(res, t)
			if digests[i] == "" {
				digests[i] = got
			}
			res.check(got == digests[i], "sweep: set %d pass digest %s differs from its first %s", i, got, digests[i])
			cpu.add(i, ms(c))
			rates.add(i, nr/c.Seconds())
			wall.add(i, ms(d))
			wallRates.add(i, nr/d.Seconds())
			nodeRounds += nr
			if cycle == 0 {
				r, p, g := tableFaults(t)
				reinits, repairs, degraded = reinits+r, repairs+p, degraded+g
			}
		}
	}
	m1 := e.mem.read()
	res.pctSets("node_rounds_per_cpu_s", rates, 0.5)
	res.pctSets("op_cpu_ms_p50", cpu, 0.5)
	res.pctSets("op_cpu_ms_p75", cpu, 0.75)
	res.set("allocs_per_node_round", float64(m1.objects-m0.objects)/nodeRounds)
	heapMetric(res, heap.stop())
	res.noteSets("node_rounds_per_s", "1/s", wallRates, 0.5)
	res.noteSets("op_p50_ms", "ms", wall, 0.5)
	res.noteSets("op_p75_ms", "ms", wall, 0.75)
	res.note("sweep: %d Figure 7 passes over %d seed sets", cpu.n(), sweepSets)
	if !e.traced {
		return nil
	}
	gcMetrics(res, m0, m1)
	res.set("experiment.reinits", float64(reinits))
	res.set("experiment.repairs", float64(repairs))
	res.set("experiment.degraded_rounds", float64(degraded))
	cfgs := sweepConfigs(seeds[0])

	// The experiment layer's jobs, one (cell × algorithm) run at a time;
	// each must reproduce its figure cell.
	for i, cfg := range cfgs {
		for _, a := range experiment.StandardAlgorithms() {
			sp := e.tr.begin("experiment.job")
			m, err := experiment.RunNamedContext(ctx, cfg, a.Name, a.New, experiment.Options{Parallelism: 1})
			e.tr.end(sp)
			if err != nil {
				return err
			}
			cell, _ := t0.Cell(strconv.Itoa(sweepPeriods[i]), a.Name)
			res.check(m.FramesPerRound == cell.FramesPerRound && m.BitsPerRound == cell.BitsPerRound &&
				m.MaxNodeEnergyPerRound == cell.MaxNodeEnergyPerRound && m.ExactRounds == cell.ExactRounds,
				"sweep: job period=%d %s does not reproduce its figure cell", sweepPeriods[i], a.Name)
		}
	}
	jobs := e.tr.durations("experiment.job", time.Millisecond)
	res.pct("experiment.job_ms_p50", jobs, 0.5)
	res.pct("experiment.job_ms_max", jobs, 1)

	// Protocol and observability probes on the τ = 63 cell, the
	// configuration of the repository's Round* micro-benchmarks.
	target := probeTarget{cfg: cfgs[2], rounds: sweepRounds}
	points, err := probeProtocols(ctx, e, res, target)
	if err != nil {
		return err
	}
	if err := crossCheckAllocs(res); err != nil {
		return err
	}
	return probeObservability(e, res, target, points)
}

// benchAllocs are the Round* allocs/op recorded in BENCH_2026-08-07c.json
// for one warm Simulation.Step at |N| = 500, τ = 63.
var benchAllocs = map[string]float64{
	"TAG": 1831, "POS": 1347, "LCLL-H": 1694, "LCLL-S": 2702, "HBC": 751, "IQ": 637,
}

// crossCheckAllocs compares allocations per round with the recorded
// micro-benchmarks, on the probe's own τ = 63 cell and on the
// micro-benchmarks' deployment (DefaultConfig, seed 1), 250 rounds
// without spans. A large excess on the latter would mean the probe's
// round discipline allocates more than Simulation.Step.
func crossCheckAllocs(res *result) error {
	cfg := experiment.Default()
	cfg.Nodes, cfg.Runs = sweepNodes, 1
	target := probeTarget{cfg: cfg, rounds: 250}
	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		return err
	}
	for _, name := range probeAlgorithms {
		want, ok := benchAllocs[name]
		if !ok {
			continue
		}
		got, err := bareAllocs(res, target, dep, name)
		if err != nil {
			return err
		}
		cell := res.values[name+".allocs_per_round"]
		res.note("allocs cross-check %-6s BENCH Round%s %5.0f/op; seed-1 deployment %7.1f/round (ratio %.3f); probe cell %7.1f/round (ratio %.3f)",
			name, name, want, got, got/want, cell, cell/want)
	}
	return nil
}

// tableFaults sums the fault-path counters over a table's cells.
func tableFaults(t *wsnq.Table) (reinits, repairs, degraded int) {
	for _, row := range t.Rows {
		for _, col := range t.Cols {
			m, _ := t.Cell(row, col)
			reinits += m.Reinits
			repairs += m.Repairs
			degraded += m.DegradedRounds
		}
	}
	return reinits, repairs, degraded
}
