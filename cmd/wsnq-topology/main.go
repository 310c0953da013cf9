// Command wsnq-topology inspects the simulated deployments: structural
// statistics (hop depths, fan-out, subtree sizes), a Graphviz DOT dump,
// or an SVG map of node positions and routing-tree edges.
//
// Usage:
//
//	wsnq-topology -nodes 500 -range 35 -format stats
//	wsnq-topology -nodes 300 -dataset pressure -format svg > map.svg
//	wsnq-topology -format dot | dot -Tpng > tree.png
//	wsnq-topology -nodes 100 -trace probe.jsonl
//	wsnq-topology -nodes 100 -http :8080   # probe-round /metrics, /health, /debug/pprof
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"wsnq/internal/alert"
	"wsnq/internal/baseline"
	"wsnq/internal/cli"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/report"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/telemetry"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 500, "number of sensor nodes")
		area       = flag.Float64("area", 200, "region side [m]")
		radioRange = flag.Float64("range", 35, "radio range ρ [m]")
		dataset    = flag.String("dataset", "synthetic", "synthetic (uniform placement) or pressure (SOM placement)")
		seed       = flag.Int64("seed", 1, "seed")
		bfs        = flag.Bool("bfs", false, "hop-count BFS tree instead of the Euclidean SPT")
		format     = flag.String("format", "stats", "stats, dot, or svg")
		pixels     = flag.Int("pixels", 600, "svg: image size in pixels")
		traceFile  = flag.String("trace", "", "record one TAG collection round on this deployment to FILE as JSON Lines")
		httpAddr   = flag.String("http", "", "serve the probe round's telemetry on ADDR (/metrics, /health, /series, /alerts, /dashboard, /debug/pprof)")
		alertSpec  = flag.String("alert", "", cli.AlertRulesUsage)
		faultSpec  = flag.String("fault", "", cli.FaultPlanUsage)
	)
	flag.Parse()

	sess := cli.NewSession("wsnq-topology")
	defer sess.Close()

	cfg, err := buildConfig(*dataset, *nodes, *area, *radioRange, *seed, *bfs)
	if err != nil {
		sess.Fatal(err)
	}
	top, err := build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
		os.Exit(1)
	}

	var plan *fault.Plan
	if *faultSpec != "" {
		if plan, err = fault.Parse(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
	}

	// The probe round's flight-recorder stream can go to a JSONL file,
	// the health analyzer behind -http, the series store behind -http
	// and -alert, or all three.
	var collectors []trace.Collector
	var flushTrace func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		collectors = append(collectors, trace.NewWriter(bw))
		flushTrace = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	var eng *alert.Engine
	if *alertSpec != "" {
		rules, err := alert.ParseRules(*alertSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		if eng, err = alert.NewEngine(rules...); err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		eng.SetBudget(cfg.Energy.InitialBudget)
	}
	var rt *sim.Runtime
	if *traceFile != "" || *httpAddr != "" || eng != nil {
		if rt, err = experiment.BuildRuntime(cfg, 0); err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
	}
	var an *telemetry.Analyzer
	var st *series.Store
	if *httpAddr != "" || eng != nil {
		st = series.New(0)
		var sinks []series.Sink
		if eng != nil {
			sinks = append(sinks, eng.Observe)
		}
		collectors = append(collectors, st.IngestTotals("TAG-probe", experiment.SeriesSampler(rt), sinks...))
	}
	if *httpAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Gauge("topology.nodes").Set(float64(top.N()))
		reg.Gauge("topology.max_depth").Set(float64(top.MaxDepth()))
		an = telemetry.NewAnalyzer(cfg.Energy.InitialBudget)
		if err := sess.Serve(*httpAddr, telemetry.Handler(reg, an, st, eng, nil, nil)); err != nil {
			sess.Fatal(err)
		}
		collectors = append(collectors, an)
	}
	if rt != nil {
		if err := traceProbe(cfg, rt, plan, trace.Multi(collectors...)); err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		if flushTrace != nil {
			if err := flushTrace(); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-topology: trace:", err)
				os.Exit(1)
			}
		}
	}

	switch *format {
	case "stats":
		printStats(top)
	case "dot":
		out, err := report.DeploymentDOT(top)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	case "svg":
		out, err := report.DeploymentSVG(top, *area, *pixels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-topology:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	default:
		fmt.Fprintf(os.Stderr, "wsnq-topology: unknown format %q\n", *format)
		os.Exit(1)
	}

	if eng != nil {
		cli.PrintAlerts(os.Stderr, eng.States(), eng.Log())
	}
	sess.Linger()
}

// buildConfig assembles the experiment cell these flags describe, run
// through the same defaults the harness uses.
func buildConfig(dataset string, nodes int, area, radioRange float64, seed int64, bfs bool) (experiment.Config, error) {
	cfg := experiment.Default()
	cfg.Nodes = nodes
	cfg.Area = area
	cfg.RadioRange = radioRange
	cfg.Seed = seed
	cfg.Rounds = 1 // keeps the pressure trace short; the tree ignores it
	cfg.Runs = 1
	if bfs {
		cfg.Tree = experiment.TreeBFS
	}
	switch dataset {
	case "synthetic":
		// experiment.Default is the synthetic cell already.
	case "pressure":
		cfg.Dataset = experiment.DatasetSpec{Kind: experiment.Pressure}
	default:
		return cfg, fmt.Errorf("unknown dataset %q", dataset)
	}
	return cfg, nil
}

// build assembles run 0's deployment through the same
// experiment.BuildDeployment path the harness uses, so the inspected
// topology is exactly the one a simulation with these parameters runs
// on.
func build(cfg experiment.Config) (*wsn.Topology, error) {
	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		return nil, err
	}
	return dep.Topology(), nil
}

// traceProbe records one TAG collection round (a full leaves-to-root
// convergecast of every reading) on rt, run 0's runtime, so the event
// stream shows exactly which hops carry how much traffic on the
// inspected tree. The round is the initialization round of the one
// round driver every tool shares: a -fault plan is attached with the
// default ARQ recovery, and like every initialization the probe runs
// over reliable links, so crashes land in it but bursts and
// partitions do not.
func traceProbe(cfg experiment.Config, rt *sim.Runtime, plan *fault.Plan, c trace.Collector) error {
	d, err := experiment.NewDriver(rt, baseline.NewTAG(), cfg.K(), experiment.Rig{
		Trace: c, Faults: plan, FaultSeed: experiment.FaultSeed(cfg, 0),
	})
	if err != nil {
		return err
	}
	if _, err := d.Step(); err != nil {
		return err
	}
	rt.EndTrace()
	return nil
}

// printStats reports the structural properties that drive the hotspot
// energy: depth distribution, fan-out, and subtree sizes.
func printStats(t *wsn.Topology) {
	n := t.N()
	subtree := make([]int, n)
	for _, u := range t.PostOrder {
		subtree[u] = 1
		for _, c := range t.Children[u] {
			subtree[u] += subtree[c]
		}
	}
	var depths, degrees, subs []int
	for i := 0; i < n; i++ {
		depths = append(depths, t.Depth[i])
		degrees = append(degrees, len(t.Children[i]))
		subs = append(subs, subtree[i])
	}
	sort.Ints(depths)
	sort.Ints(degrees)
	sort.Ints(subs)

	fmt.Printf("nodes: %d   root children: %d   max depth: %d\n", n, len(t.RootChildren), t.MaxDepth())
	fmt.Printf("depth    p50 %d   p95 %d   max %d\n", depths[n/2], depths[n*95/100], depths[n-1])
	fmt.Printf("fan-out  p50 %d   p95 %d   max %d\n", degrees[n/2], degrees[n*95/100], degrees[n-1])
	fmt.Printf("subtree  p50 %d   p95 %d   max %d (the TAG hotspot carries this many values)\n",
		subs[n/2], subs[n*95/100], subs[n-1])
	leaves := 0
	for i := 0; i < n; i++ {
		if len(t.Children[i]) == 0 {
			leaves++
		}
	}
	fmt.Printf("leaves   %d (%.0f%%)\n", leaves, 100*float64(leaves)/float64(n))
}
