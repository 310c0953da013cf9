package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"wsnq/internal/experiment"
	"wsnq/internal/scenario"
)

// chaosTemplate is the chaos scenario: iid loss, a relay crash, a bursty
// link and a sink partition under ARQ, with alerts, SLOs and the
// closed-loop controller attached. The seed line, the crashed relay and
// the bursty link are filled in from the benchmark seed.
const chaosTemplate = `scenario chaos
nodes 200
area 200
range 35
rounds 250
runs 2
seed %d
loss 0.02
algorithms IQ,HBC,ADAPT
fault crash@40-90:n%d; burst(p=0.05,len=4):n%d; partition@120-126
arq retries=3 dead=2
alerts ` + obsRules + `
slo rank
slo fresh
adapt ` + obsPolicy + `
`

// chaosSets is how many scenarios a run records and replays. A replay
// cycle's cost depends on its scenarios' fault placements, and eight
// keep a cycle close to the average over placements.
const chaosSets = 8

// chaosPinned is scenario 0's live outcome hash at the default seed.
const chaosPinned = "b8bd27919f24ec10518e8bd39fcc5d9d1dd9a14f243ae3ae450b3ae7b1d66cf4"

// chaosScenario renders the scenario for a seed. The crashed node is
// the busiest relay below the sink's neighbours in the run-0 routing
// tree, so its crash orphans a subtree and forces a repair; the bursty
// link is the uplink of the next busiest.
func chaosScenario(seed int64) (string, error) {
	s, err := scenario.Parse(fmt.Sprintf(chaosTemplate, seed, 0, 1))
	if err != nil {
		return "", err
	}
	cfg, err := s.Config()
	if err != nil {
		return "", err
	}
	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		return "", err
	}
	top := dep.Topology()
	var relays []int
	for i := range top.Pos {
		if top.Depth[i] >= 2 && len(top.Children[i]) > 0 {
			relays = append(relays, i)
		}
	}
	if len(relays) < 2 {
		return "", fmt.Errorf("chaos: fewer than two relays below depth 1")
	}
	sort.SliceStable(relays, func(a, b int) bool { return len(top.Children[relays[a]]) > len(top.Children[relays[b]]) })
	return fmt.Sprintf(chaosTemplate, seed, relays[0], relays[1]), nil
}

func runChaos(ctx context.Context, e *env, res *result) error {
	// A run records and replays chaosSets scenarios, each generated from
	// its own seed, so it averages the cost of many deployments and
	// fault placements.
	texts := make([]string, chaosSets)
	for i := range texts {
		var err error
		if texts[i], err = chaosScenario(derive(e.seed, fmt.Sprintf("chaos/%d", i))); err != nil {
			return err
		}
	}

	// Set-up: parse every scenario and build its deployments.
	scs := make([]*scenario.Scenario, chaosSets)
	setup, err := setupMedian(5, func() error {
		for i, text := range texts {
			sp := e.tr.begin("scenario.parse")
			s, err := scenario.Parse(text)
			e.tr.end(sp)
			if err != nil {
				return err
			}
			cfg, err := s.Config()
			if err != nil {
				return err
			}
			for run := 0; run < s.Runs; run++ {
				sp := e.tr.begin("experiment.deployment")
				if _, err := experiment.BuildDeployment(cfg, run); err != nil {
					return err
				}
				e.tr.end(sp)
			}
			scs[i] = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup)

	// Live: record every scenario into memory, cycling until the live
	// share of the run is spent. Every recording of a scenario must
	// hash alike.
	var (
		recs                = make([][]byte, chaosSets)
		hashes              = make([]string, chaosSets)
		outs                = make([]*scenario.Outcome, chaosSets)
		keyRounds           = make([]int, chaosSets)
		nodeRounds          float64
		cpuRates, wallRates []float64
	)
	heap := startHeapSampler()
	start := time.Now()
	m0 := e.mem.read()
	for cycle := 0; cycle < 2 || time.Since(start) < e.seconds*2/5; cycle++ {
		var cycleRounds float64
		t0, c0 := time.Now(), cpuTime()
		for i, s := range scs {
			var buf bytes.Buffer
			sp := e.tr.begin("scenario.record")
			o, err := scenario.Record(ctx, s, &buf)
			e.tr.end(sp)
			if err != nil {
				return err
			}
			h := o.Hash()
			if outs[i] == nil {
				outs[i], recs[i], hashes[i] = o, buf.Bytes(), h
				for _, m := range o.Metrics {
					keyRounds[i] += m.Rounds
				}
			}
			res.check(h == hashes[i], "chaos: scenario %d recording hash %s differs from its first %s", i, h, hashes[i])
			cycleRounds += float64(keyRounds[i] * s.Nodes)
		}
		cpuRates = append(cpuRates, cycleRounds/(cpuTime()-c0).Seconds())
		wallRates = append(wallRates, cycleRounds/time.Since(t0).Seconds())
		nodeRounds += cycleRounds
	}
	m1 := e.mem.read()
	if e.seed == defaultSeed {
		res.check(hashes[0] == chaosPinned, "chaos: scenario 0 live outcome hash %s, pinned %s", hashes[0], chaosPinned)
	}
	res.pct("node_rounds_per_cpu_s", cpuRates, 0.5)
	res.set("allocs_per_node_round", float64(m1.objects-m0.objects)/nodeRounds)

	// Replay: re-derive every outcome from its recording, with no
	// simulation. One operation replays every recording once.
	var (
		cpu, wall    []float64
		replayRounds int
	)
	replayStart := time.Now()
	for len(cpu) < 20 || time.Since(start) < e.seconds {
		t0, c0 := time.Now(), cpuTime()
		for i, rec := range recs {
			sp := e.tr.begin("scenario.replay")
			o, err := scenario.Replay(bytes.NewReader(rec))
			e.tr.end(sp)
			if err != nil {
				return err
			}
			res.check(o.Hash() == hashes[i], "chaos: scenario %d replay hash %s differs from the live hash %s", i, o.Hash(), hashes[i])
			replayRounds += keyRounds[i]
		}
		cpu = append(cpu, ms(cpuTime()-c0))
		wall = append(wall, ms(time.Since(t0)))
	}
	replayBusy := time.Since(replayStart).Seconds()
	res.pct("op_cpu_ms_p50", cpu, 0.5)
	res.pct("op_cpu_ms_p75", cpu, 0.75)
	heapMetric(res, heap.stop())
	res.noteValue("node_rounds_per_s", "1/s", median(wallRates), len(wallRates))
	res.noteValue("op_p50_ms", "ms", quantile(wall, 0.5), len(wall))
	res.noteValue("op_p75_ms", "ms", quantile(wall, 0.75), len(wall))
	res.noteValue("replay_rounds_per_s", "1/s", float64(replayRounds)/replayBusy, len(wall))
	var reinits, repairs, degraded, recBytes, allRounds int
	for i, o := range outs {
		for _, m := range o.Metrics {
			reinits += m.Reinits
			repairs += m.Repairs
			degraded += m.DegradedRounds
		}
		recBytes += len(recs[i])
		allRounds += keyRounds[i]
	}
	res.note("chaos: scenario 0 live hash %s; %d live cycles and %d replay cycles over %d scenarios",
		hashes[0], len(cpuRates), len(cpu), chaosSets)
	res.note("chaos: %d key-rounds per cycle, %d reinitializations, %d repairs, %d degraded rounds", allRounds, reinits, repairs, degraded)
	if !e.traced {
		return nil
	}
	gcMetrics(res, m0, m1)
	res.set("experiment.reinits", float64(reinits))
	res.set("experiment.repairs", float64(repairs))
	res.set("experiment.degraded_rounds", float64(degraded))
	res.set("experiment.deployment_ms", median(e.tr.durations("experiment.deployment", time.Millisecond)))
	res.set("scenario.parse_ms", median(e.tr.durations("scenario.parse", time.Millisecond)))
	res.set("scenario.record_bytes_per_round", float64(recBytes)/float64(allRounds))
	for i := 0; i < 21; i++ {
		sp := e.tr.begin("scenario.hash")
		outs[0].Hash()
		e.tr.end(sp)
	}
	res.set("scenario.hash_ms", median(e.tr.durations("scenario.hash", time.Millisecond)))

	s := scs[0]
	cfg, err := s.Config()
	if err != nil {
		return err
	}
	algs, err := s.Factories()
	if err != nil {
		return err
	}
	single := cfg
	single.Runs = 1
	for _, a := range algs {
		sp := e.tr.begin("experiment.job")
		_, err := experiment.RunNamedContext(ctx, single, a.Name, a.New, experiment.Options{Parallelism: 1, Faults: s.Faults, ARQ: s.ARQ})
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	jobs := e.tr.durations("experiment.job", time.Millisecond)
	res.pct("experiment.job_ms_p50", jobs, 0.5)
	res.pct("experiment.job_ms_max", jobs, 1)

	target := probeTarget{cfg: cfg, rounds: s.Rounds, faults: s.Faults, arq: s.ARQ}
	points, err := probeProtocols(ctx, e, res, target)
	if err != nil {
		return err
	}
	return probeObservability(e, res, target, points)
}
