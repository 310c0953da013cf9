// Command wsnq-bench reproduces the paper's evaluation: it runs the
// parameter sweeps behind every figure of §5 (plus this repository's
// extension and ablation studies) and prints the result tables.
//
// Usage:
//
//	wsnq-bench -fig fig7 -scale 0.2
//	wsnq-bench -fig all -metric energy,lifetime
//	wsnq-bench -fig fig6 -scale 1 -par 8 -progress
//	wsnq-bench -list
//	wsnq-bench -json                    # write the day's first free BENCH_<date>[b|c|…].json for the regression guard
//	wsnq-bench -diff OLD.json NEW.json  # benchstat-style delta table of two sessions
//	wsnq-bench -fig fig6 -http :8080    # live /metrics, /health, /series, /alerts, /dashboard
//	wsnq-bench -fig loss -alert "storm; excursion"
//	wsnq-bench -fig loss -prof -cpuprofile /tmp/prof   # phase-labeled CPU profile + attribution table
//
// Scale 1.0 is the paper's full 20 runs × 250 rounds; the default 0.1
// reproduces the shapes in seconds. Sweeps run on the parallel engine
// (one worker per CPU unless -par says otherwise) and can be aborted
// with Ctrl-C.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wsnq"
	"wsnq/internal/cli"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure id (see -list) or 'all'")
		scale     = flag.Float64("scale", 0.1, "fraction of the paper's 20 runs × 250 rounds")
		metrics   = flag.String("metric", "energy,lifetime", "comma-separated metrics: energy, lifetime, values, frames, rankerror")
		nodes     = flag.Int("nodes", 0, "override the default node count of non-|N| sweeps")
		seed      = flag.Int64("seed", 0, "override the base seed")
		list      = flag.Bool("list", false, "list available figures and exit")
		svgDir    = flag.String("svg", "", "also write one SVG chart per (table, metric) into this directory")
		logY      = flag.Bool("logy", false, "logarithmic value axis in SVG charts")
		par       = flag.Int("par", 0, "parallel simulation runs (0 = one per CPU, 1 = sequential)")
		progress  = flag.Bool("progress", false, "report sweep progress on stderr")
		traceFile = flag.String("trace", "", "write the flight-recorder event stream of every run to FILE as JSON Lines (forces sequential runs)")
		httpAddr  = flag.String("http", "", "serve live telemetry on ADDR (/metrics, /health, /series, /alerts, /dashboard, /debug/pprof; forces sequential runs)")
		alertSpec = flag.String("alert", "", cli.AlertRulesUsage+" (forces sequential runs)")
		faultSpec = flag.String("fault", "", cli.FaultPlanUsage)
		jsonBench = flag.Bool("json", false, "continuous-benchmarking mode: measure the tracked hot paths and write a BENCH_<date>.json")
		jsonOut   = flag.String("out", "", "with -json: output file (default the first free BENCH_<today>[b|c|…].json)")
		jsonReps  = flag.Int("reps", 3, "with -json: repetitions per hot path; the fastest is recorded, filtering scheduler noise")
		diffBench = flag.Bool("diff", false, "diff two BENCH_*.json sessions (wsnq-bench -diff OLD.json NEW.json) and exit")
		profAttr  = flag.Bool("prof", false, "attribute CPU time and allocations to algorithm×phase buckets and print the table after the sweep (forces sequential runs)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the figure runs to DIR/cpu.pprof (phase-labeled with -prof)")
		memProf   = flag.String("memprofile", "", "write an end-of-run heap profile to DIR/mem.pprof")
	)
	flag.Parse()

	sess := cli.NewSession("wsnq-bench")
	defer sess.Close()
	ctx := sess.Context()

	if *list {
		for _, f := range wsnq.Figures() {
			fmt.Printf("%-12s %s\n             %s\n", f.ID, f.Title, f.Description)
		}
		return
	}
	if *diffBench {
		if flag.NArg() != 2 {
			sess.Fatalf("-diff wants exactly two sessions: wsnq-bench -diff OLD.json NEW.json")
		}
		if err := runBenchDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			sess.Fatal(err)
		}
		return
	}
	if *jsonBench {
		if err := runBenchJSON(*jsonOut, *jsonReps); err != nil {
			sess.Fatal(err)
		}
		return
	}
	if *cpuProf != "" {
		if err := os.MkdirAll(*cpuProf, 0o755); err != nil {
			sess.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*cpuProf, "cpu.pprof"))
		if err != nil {
			sess.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			sess.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: cpuprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wsnq-bench: wrote %s\n", f.Name())
		}()
	}
	if *memProf != "" {
		if err := os.MkdirAll(*memProf, 0o755); err != nil {
			sess.Fatal(err)
		}
		defer func() {
			path := filepath.Join(*memProf, "mem.pprof")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: memprofile:", err)
				return
			}
			runtime.GC() // settle live-object accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: memprofile:", err)
				f.Close()
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: memprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wsnq-bench: wrote %s\n", path)
		}()
	}

	var ids []string
	if *fig == "all" {
		for _, f := range wsnq.Figures() {
			ids = append(ids, f.ID)
		}
	} else {
		ids = strings.Split(*fig, ",")
	}
	sels := strings.Split(*metrics, ",")

	opts := wsnq.FigureOptions{Scale: *scale, Nodes: *nodes, Seed: *seed, Parallelism: *par}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d jobs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// One Observer bundles every requested sink; FigureOptions feeds it
	// through the same engine path the deprecated per-field options used.
	ob := &wsnq.Observer{}
	opts.Observer = ob
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			sess.Fatal(err)
		}
		bw := bufio.NewWriter(f)
		defer func() {
			if err := bw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: trace:", err)
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "wsnq-bench: trace:", err)
			}
		}()
		ob.Trace = wsnq.NewTraceJSONL(bw)
	}
	if *alertSpec != "" {
		var err error
		if ob.Alerts, err = wsnq.NewAlerts(*alertSpec); err != nil {
			sess.Fatal(err)
		}
	}
	if *faultSpec != "" {
		plan, err := wsnq.ParseFaultPlan(*faultSpec)
		if err != nil {
			sess.Fatal(err)
		}
		opts.Faults = plan
	}
	if *alertSpec != "" || *httpAddr != "" {
		ob.Series = wsnq.NewSeries()
	}
	if *profAttr {
		ob.Prof = wsnq.NewProf()
	}
	if *httpAddr != "" {
		ob.Telemetry = wsnq.NewTelemetry()
		if err := sess.Serve(*httpAddr, ob.Handler()); err != nil {
			sess.Fatal(err)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tables, err := wsnq.RunFigureContext(ctx, id, opts)
		if err != nil {
			sess.Fatalf("%s: %v", id, err)
		}
		for ti, t := range tables {
			for _, m := range sels {
				m = strings.TrimSpace(m)
				if id == "loss" && m == "lifetime" {
					m = wsnq.MetricRankError // the loss study's headline metric
				}
				fmt.Println(t.Format(m))
				if *svgDir != "" {
					if err := writeSVG(*svgDir, id, ti, m, t, *logY); err != nil {
						sess.Fatal(err)
					}
				}
			}
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if ob.Alerts != nil {
		cli.PrintAlerts(os.Stdout, ob.Alerts.States(), ob.Alerts.Log())
	}
	if ob.Prof != nil {
		fmt.Println("per-phase attribution (CPU-heaviest first):")
		if err := ob.Prof.Report().WriteText(os.Stdout); err != nil {
			sess.Fatal(err)
		}
	}
	sess.Linger()
}

// writeSVG renders one table/metric chart into dir.
func writeSVG(dir, id string, tableIdx int, metric string, t *wsnq.Table, logY bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := t.SVG(metric, logY)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s.svg", id, metric)
	if tableIdx > 0 {
		name = fmt.Sprintf("%s-%d-%s.svg", id, tableIdx, metric)
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644)
}
