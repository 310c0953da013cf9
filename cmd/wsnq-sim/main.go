// Command wsnq-sim runs a single continuous quantile study and prints
// the averaged metrics, one line per algorithm.
//
// Usage:
//
//	wsnq-sim -nodes 500 -rounds 250 -runs 5 -alg IQ,HBC,POS
//	wsnq-sim -dataset pressure -skip 4 -pessimistic -alg all
//	wsnq-sim -phi 0.9 -period 32 -noise 20 -loss 0.05 -alg IQ
//	wsnq-sim -nodes 40 -rounds 25 -runs 1 -alg IQ -trace run.jsonl
//	wsnq-sim -rounds 250 -runs 20 -http :8080   # live /metrics, /health, /series, /alerts, /dashboard
//	wsnq-sim -loss 0.05 -alg HBC,IQ -alert storm   # warn on refinement storms
//	wsnq-sim -scenario testdata/scenarios/lossy-storm.scn          # run a scenario file
//	wsnq-sim -scenario storm.scn -record storm.rec.jsonl           # ...and capture a recording
//	wsnq-sim -replay storm.rec.jsonl                               # replay it offline, bit-identically
//	wsnq-sim -alg IQ -slo "rank; fresh"                            # grade the run against SLO error budgets
//	wsnq-sim -replay storm.rec.jsonl -replay-window 40:48          # re-drive one exemplar's round span
//	wsnq-sim -loss 0.1 -alg ADAPT -adapt "on storm(warn) do switch hbc"   # close the loop: alerts drive protocol actions
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"wsnq"
	"wsnq/internal/cli"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 500, "number of sensor nodes |N|")
		area       = flag.Float64("area", 200, "deployment region side [m]")
		radioRange = flag.Float64("range", 35, "radio range ρ [m]")
		phi        = flag.Float64("phi", 0.5, "quantile fraction φ (0.5 = median)")
		rounds     = flag.Int("rounds", 250, "rounds per run")
		runs       = flag.Int("runs", 5, "simulation runs to average")
		seed       = flag.Int64("seed", 1, "base seed")
		loss       = flag.Float64("loss", 0, "per-hop convergecast loss probability")

		dataset     = flag.String("dataset", "synthetic", "synthetic or pressure")
		period      = flag.Int("period", 63, "synthetic: sinusoid period τ [rounds]")
		noise       = flag.Float64("noise", 10, "synthetic: noise ψ [%]")
		universe    = flag.Int("universe", 1<<16, "synthetic: distinct values")
		skip        = flag.Int("skip", 1, "pressure: keep every skip-th sample")
		pessimistic = flag.Bool("pessimistic", false, "pressure: use the physical hPa universe")

		algsFlag  = flag.String("alg", "all", "comma-separated algorithms or 'all' (TAG, POS, LCLL-H, LCLL-S, HBC, HBC-NB, IQ, ADAPT)")
		anatomy   = flag.Bool("anatomy", false, "also print the per-phase traffic breakdown (cost anatomy)")
		par       = flag.Int("par", 0, "parallel simulation runs (0 = one per CPU, 1 = sequential)")
		progress  = flag.Bool("progress", false, "report engine progress on stderr")
		traceFile = flag.String("trace", "", "write the flight-recorder event stream to FILE as JSON Lines (forces sequential runs)")
		httpAddr  = flag.String("http", "", "serve live telemetry on ADDR (/metrics, /health, /series, /alerts, /dashboard, /debug/pprof; forces sequential runs)")
		alertSpec = flag.String("alert", "", cli.AlertRulesUsage)
		faultSpec = flag.String("fault", "", cli.FaultPlanUsage)
		sloSpec   = flag.String("slo", "", "evaluate SLO objectives over the study's per-round series and print budget statuses (ParseSLOSpecs grammar, e.g. \"rank; fresh\"; forces sequential runs)")
		adaptSpec = flag.String("adapt", "", "attach a closed-loop adaptation controller to every run and print its decision log (policy grammar, e.g. \"on storm(warn) do switch hbc; on burnrate(crit) do reroot\")")

		scenarioFile = flag.String("scenario", "", cli.ScenarioUsage)
		recordFile   = flag.String("record", "", "with -scenario: capture a replayable JSONL recording to FILE")
		replayFile   = flag.String("replay", "", "replay a -record recording offline (no simulation) and print its outcome")
		replayWin    = flag.String("replay-window", "", "with -replay: re-drive only rounds FROM:TO through fresh alert/SLO windows — the exemplar debugging mode (outcome not hash-comparable to live)")
	)
	flag.Parse()

	s := cli.NewSession("wsnq-sim")
	defer s.Close()
	ctx := s.Context()

	if *replayFile != "" {
		if *scenarioFile != "" || *recordFile != "" {
			s.Fatalf("-replay is exclusive with -scenario and -record")
		}
		replayRecording(s, *replayFile, *replayWin)
		return
	}
	if *replayWin != "" {
		s.Fatalf("-replay-window needs -replay")
	}
	if *scenarioFile != "" {
		runScenario(s, *scenarioFile, *recordFile)
		return
	}
	if *recordFile != "" {
		s.Fatalf("-record needs -scenario")
	}

	cfg := wsnq.Config{
		Nodes: *nodes, Area: *area, RadioRange: *radioRange,
		Phi: *phi, Rounds: *rounds, Runs: *runs, Seed: *seed, LossProb: *loss,
	}
	switch *dataset {
	case "synthetic":
		cfg.Dataset = wsnq.Dataset{
			Kind: wsnq.SyntheticData, Universe: *universe,
			Period: *period, NoisePct: *noise,
		}
	case "pressure":
		cfg.Dataset = wsnq.Dataset{
			Kind: wsnq.PressureData, Skip: *skip, Pessimistic: *pessimistic,
		}
	default:
		s.Fatalf("unknown dataset %q", *dataset)
	}

	var algs []wsnq.Algorithm
	if *algsFlag == "all" {
		algs = wsnq.StandardAlgorithms()
	} else {
		for _, a := range strings.Split(*algsFlag, ",") {
			algs = append(algs, wsnq.Algorithm(strings.TrimSpace(a)))
		}
	}

	fmt.Printf("|N|=%d  ρ=%.0fm  φ=%.2f (k=%d)  %d rounds × %d runs  dataset=%s\n\n",
		cfg.Nodes, cfg.RadioRange, cfg.Phi, cfg.K(), cfg.Rounds, cfg.Runs, *dataset)

	// One CompareContext call shares each run's deployment across all
	// requested algorithms and fans the grid out over the worker pool.
	opts := []wsnq.Option{wsnq.WithParallelism(*par)}
	if *progress {
		opts = append(opts, wsnq.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rwsnq-sim: %d/%d jobs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	var plan *wsnq.FaultPlan
	if *faultSpec != "" {
		var err error
		if plan, err = wsnq.ParseFaultPlan(*faultSpec); err != nil {
			s.Fatal(err)
		}
		opts = append(opts, wsnq.WithFaults(plan))
	}
	// One Observer bundles every requested sink: alert rules, the
	// series store and telemetry behind -http, and the JSONL recorder.
	ob := &wsnq.Observer{}
	if *alertSpec != "" {
		var err error
		if ob.Alerts, err = wsnq.NewAlerts(*alertSpec); err != nil {
			s.Fatal(err)
		}
	}
	if *httpAddr != "" {
		// A series store makes /series and /dashboard live.
		ob.Series = wsnq.NewSeries()
		ob.Telemetry = wsnq.NewTelemetry()
	}
	var slos *wsnq.SLOs
	if *sloSpec != "" {
		var err error
		if slos, err = wsnq.NewSLOs(*sloSpec); err != nil {
			s.Fatal(err)
		}
		// Post-hoc evaluation reads the study's series back, so one is
		// required (it also forces sequential runs, keeping the per-key
		// round order — and thus the budget trajectories — reproducible).
		if ob.Series == nil {
			ob.Series = wsnq.NewSeries()
		}
		// Batch studies leave the SLO slot detached; it only serves /slo.
		ob.SLO = slos
	}
	var controller *wsnq.Controller
	if *adaptSpec != "" {
		var err error
		if controller, err = wsnq.NewController(*adaptSpec); err != nil {
			s.Fatal(err)
		}
		opts = append(opts, wsnq.WithAdaptation(controller))
	}
	var flushTrace func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			s.Fatal(err)
		}
		bw := bufio.NewWriter(f)
		flushTrace = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
		ob.Trace = wsnq.NewTraceJSONL(bw)
	}
	opts = append(opts, wsnq.WithObserver(ob))
	if err := s.Serve(*httpAddr, ob.Handler()); err != nil {
		s.Fatal(err)
	}
	results, err := wsnq.CompareContext(ctx, cfg, algs, opts...)
	if err != nil {
		s.Fatal(err)
	}
	if flushTrace != nil {
		if err := flushTrace(); err != nil {
			s.Fatalf("trace: %v", err)
		}
	}

	fmt.Printf("%-8s %14s %12s %14s %12s %12s %10s\n",
		"alg", "energy[µJ/rnd]", "lifetime", "values/round", "frames/rnd", "exact", "rank err")
	for _, r := range results {
		m := r.Metrics
		fmt.Printf("%-8s %14.1f %12.0f %14.1f %12.1f %9d/%d %10.2f\n",
			r.Algorithm, m.MaxNodeEnergyPerRound*1e6, m.LifetimeRounds,
			m.ValuesPerRound, m.FramesPerRound, m.ExactRounds, m.Rounds, m.MeanRankError)
		if plan != nil {
			fmt.Printf("         faults: %d/%d degraded rounds  %d repairs  %.2f retries/round  %d reinits\n",
				m.DegradedRounds, m.Rounds, m.Repairs, m.RetriesPerRound, m.Reinits)
		}
		if *anatomy {
			printAnatomy(m)
		}
	}

	if ob.Alerts != nil {
		fmt.Println()
		cli.PrintAlerts(os.Stdout, ob.Alerts.States(), ob.Alerts.Log())
	}

	if controller != nil {
		ds := controller.Decisions()
		fmt.Printf("\nadaptation decisions (%d):\n", len(ds))
		for _, d := range ds {
			fmt.Printf("  %s\n", d)
		}
	}

	if slos != nil {
		// Re-drive the recorded series through the objectives, one key
		// at a time; every study ran |N|=cfg.Nodes, which scales the
		// rank objective's εN tolerance.
		for _, key := range ob.Series.Keys() {
			slos.StartRun(key)
			for _, p := range ob.Series.Points(key) {
				slos.Observe(key, wsnq.SLOSampleFromPoint(p, cfg.Nodes, 0))
			}
		}
		fmt.Println()
		cli.PrintSLO(os.Stdout, slos.Statuses(), slos.Log())
	}

	if ob.Telemetry != nil {
		h := ob.Telemetry.Health()
		fmt.Printf("\nnetwork health: Jain(energy)=%.3f  hotspot node %d (%.0f%% of drain)  projected first death: %.0f rounds\n",
			h.JainEnergy, h.Lifetime.HottestNode, 100*topShare(h), h.Lifetime.ProjectedRounds)
	}
	s.Linger()
}

// runScenario executes a scenario file (optionally capturing a
// recording) and prints the per-key metrics, alerts, and outcome hash.
func runScenario(s *cli.Session, path, recordPath string) {
	src, err := os.ReadFile(path)
	if err != nil {
		s.Fatal(err)
	}
	sc, err := wsnq.ParseScenario(string(src))
	if err != nil {
		s.Fatal(err)
	}
	fmt.Printf("scenario %s (sha256 %.12s…)  |N|=%d  φ=%.2f  %d rounds × %d runs  %s\n\n",
		sc.Name(), sc.Hash(), sc.Nodes(), sc.Phi(), sc.Rounds(), sc.Runs(),
		joinAlgorithms(sc.Algorithms()))

	var out *wsnq.ScenarioOutcome
	if recordPath != "" {
		f, err := os.Create(recordPath)
		if err != nil {
			s.Fatal(err)
		}
		bw := bufio.NewWriter(f)
		out, err = wsnq.RecordScenario(s.Context(), sc, bw)
		if err != nil {
			s.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			s.Fatal(err)
		}
		if err := f.Close(); err != nil {
			s.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wsnq-sim: recording written to %s\n", recordPath)
	} else {
		if out, err = wsnq.RunScenario(s.Context(), sc); err != nil {
			s.Fatal(err)
		}
	}
	printOutcome(out)
}

// replayRecording replays a recording offline and prints the
// reconstructed outcome — the hash matches the recorded live run's.
// A non-empty window ("FROM:TO") switches to the exemplar debugging
// mode: only those recorded rounds re-drive fresh alert/SLO state.
func replayRecording(s *cli.Session, path, window string) {
	f, err := os.Open(path)
	if err != nil {
		s.Fatal(err)
	}
	defer f.Close()
	var out *wsnq.ScenarioOutcome
	if window != "" {
		from, to, err := parseWindow(window)
		if err != nil {
			s.Fatal(err)
		}
		if out, err = wsnq.ReplayWindow(bufio.NewReader(f), from, to); err != nil {
			s.Fatal(err)
		}
		fmt.Printf("replayed %s rounds %d..%d (fresh windows — not hash-comparable to live)\n\n", path, from, to)
	} else {
		if out, err = wsnq.ReplayRecording(bufio.NewReader(f)); err != nil {
			s.Fatal(err)
		}
		fmt.Printf("replayed %s\n\n", path)
	}
	printOutcome(out)
}

// parseWindow parses a "FROM:TO" round range.
func parseWindow(s string) (from, to int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("wsnq-sim: -replay-window wants FROM:TO, got %q", s)
	}
	if from, err = strconv.Atoi(a); err == nil {
		to, err = strconv.Atoi(b)
	}
	if err != nil || from < 0 || to < from {
		return 0, 0, fmt.Errorf("wsnq-sim: bad -replay-window %q (want 0 <= FROM <= TO)", s)
	}
	return from, to, nil
}

// printOutcome renders a scenario outcome: per-key metrics (live runs
// only), the alert log, and the replay-invariant outcome hash.
func printOutcome(out *wsnq.ScenarioOutcome) {
	metrics := out.Metrics()
	if len(metrics) > 0 {
		keys := make([]string, 0, len(metrics))
		for k := range metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%-16s %14s %12s %12s %10s\n",
			"key", "energy[µJ/rnd]", "lifetime", "frames/rnd", "rank err")
		for _, k := range keys {
			m := metrics[k]
			fmt.Printf("%-16s %14.1f %12.0f %12.1f %10.2f\n",
				k, m.MaxNodeEnergyPerRound*1e6, m.LifetimeRounds, m.FramesPerRound, m.MeanRankError)
		}
	}
	series := out.Series()
	verdicts := out.Verdicts()
	fmt.Printf("\n%d series keys, %d verdicts, %d alert events, %d SLO events, %d adapt decisions\n",
		len(series), len(verdicts), len(out.Alerts()), len(out.SLOEvents()), len(out.AdaptDecisions()))
	if log := out.Alerts(); len(log) > 0 {
		fmt.Print(log.String())
	}
	cli.PrintSLO(os.Stdout, out.SLO(), out.SLOEvents())
	if ds := out.AdaptDecisions(); len(ds) > 0 {
		fmt.Println("adaptation decisions:")
		for _, d := range ds {
			fmt.Printf("  %s\n", d)
		}
	}
	fmt.Printf("outcome sha256 %s\n", out.Hash())
}

// joinAlgorithms renders an algorithm line-up for the banner.
func joinAlgorithms(algs []wsnq.Algorithm) string {
	parts := make([]string, len(algs))
	for i, a := range algs {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}

// topShare returns the hottest node's share of network energy.
func topShare(h wsnq.HealthReport) float64 {
	if len(h.Hotspots) == 0 {
		return 0
	}
	return h.Hotspots[0].Share
}

// printAnatomy renders the per-phase traffic shares of one algorithm.
func printAnatomy(m wsnq.Metrics) {
	total := 0.0
	for _, b := range m.PhaseBitsPerRound {
		total += b
	}
	if total == 0 {
		return
	}
	order := []string{"init", "validation", "refinement", "filter", "collect", "other"}
	fmt.Printf("         anatomy:")
	for _, ph := range order {
		if b, ok := m.PhaseBitsPerRound[ph]; ok && b > 0 {
			fmt.Printf("  %s %.0f%%", ph, 100*b/total)
		}
	}
	fmt.Println()
}
