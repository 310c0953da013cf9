// Command wsnq-serve hosts the continuous query service: a
// long-running registry where clients register quantile queries — each
// with its own φ, algorithm, alert rules, and isolated series state —
// over shared simulated deployments driven by one round clock.
//
// Usage:
//
//	wsnq-serve -http :8080                       # serve, 100ms rounds
//	wsnq-serve -http :8080 -nodes 120 -tick 1s
//	wsnq-serve -http :8080 -max-queries 256 -client-quota 8
//	wsnq-serve -load -load-queries 1000          # in-process load harness
//
// The HTTP/JSON API (see internal/serve):
//
//	POST   /queries              register  {"fleet":"fleet0","algorithm":"IQ","phi":0.9}
//	GET    /queries/{id}         latest answer, window stats, alerts
//	GET    /queries/{id}/subscribe   NDJSON round stream
//	DELETE /queries/{id}         deregister
//	GET    /queries, /fleets, /serve  listings and status
//	GET    /slo                  per-query SLO budget status
//
// Every other path falls through to the server's fixed surface:
// /metrics (the process runtime gauges), /debug/pprof, and an index at
// /. Queries keep their series, alerts and objectives private, so
// /health, /series, /dashboard, /alerts and /profilez answer 404.
//
// -load turns the tool into its own client: it binds a loopback
// listener, floods the API with Zipf-distributed register/read/
// subscribe traffic while ticking the round clock, and prints the
// sustained throughput report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wsnq"
	"wsnq/internal/cli"
	"wsnq/internal/serve"
)

func main() {
	var (
		httpAddr = flag.String("http", ":8080", "serve the query API on ADDR (query routes plus /metrics and /debug/pprof)")
		tick     = flag.Duration("tick", 100*time.Millisecond, "round clock period")
		rounds   = flag.Int("rounds", 0, "stop the clock after N rounds (0 = run until Ctrl-C)")

		nodes      = flag.Int("nodes", 60, "fleet: number of sensor nodes")
		area       = flag.Float64("area", 80, "fleet: deployment region side [m]")
		radioRange = flag.Float64("range", 25, "fleet: radio range ρ [m]")
		phi        = flag.Float64("phi", 0.5, "fleet: default quantile fraction φ")
		seed       = flag.Int64("seed", 1, "fleet: base seed (fleet i uses seed+i)")
		loss       = flag.Float64("loss", 0, "fleet: per-hop convergecast loss probability")
		dataset    = flag.String("dataset", "synthetic", "fleet: synthetic or pressure")
		fleetN     = flag.Int("fleet-count", 1, "number of fleets to host (fleet0, fleet1, ...)")

		sloSpec = flag.String("slo", "", "default SLO objectives for every query (ParseSLOSpecs grammar, e.g. \"rank; fresh; latency ms=25\"); budget status lands in updates and GET /slo")

		adaptSpec = flag.String("adapt", "", "default closed-loop adaptation policies for every query (policy grammar, e.g. \"on storm(warn) do switch hbc; on burnrate(crit) do reroot\"); each query gets its own controller and its decisions land in updates")

		maxQueries  = flag.Int("max-queries", 0, "admission control: concurrent query cap (0 = default 4096, negative = unlimited)")
		clientQuota = flag.Int("client-quota", 0, "admission control: queries per client name (0 = unlimited)")
		seriesCap   = flag.Int("series-cap", 0, "per-query series store capacity in points (0 = default 64)")
		subBuffer   = flag.Int("sub-buffer", 0, "per-subscription channel depth before drop-oldest (0 = default 16)")
		workers     = flag.Int("workers", 0, "query stepping pool size per round (0 = one per CPU)")

		scenarioFile = flag.String("scenario", "", cli.ScenarioUsage+" — boots the fleet(s) from the scenario's deployment instead of the fleet flags")

		load     = flag.Bool("load", false, "run the in-process load harness instead of serving")
		loadQ    = flag.Int("load-queries", 1000, "load: queries to register")
		loadR    = flag.Int("load-rounds", 16, "load: rounds to tick under traffic")
		loadC    = flag.Int("load-clients", 8, "load: distinct client names")
		loadSubs = flag.Int("load-subs", 0, "load: streaming subscribers (0 = queries/10)")
		loadRd   = flag.Int("load-reads", 0, "load: GET /queries/{id} reads (0 = 2×queries)")
		loadPar  = flag.Int("load-par", 16, "load: register/read worker pool size")
	)
	flag.Parse()

	sess := cli.NewSession("wsnq-serve")
	defer sess.Close()
	ctx := sess.Context()

	cfg := wsnq.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Area = *area
	cfg.RadioRange = *radioRange
	cfg.Phi = *phi
	cfg.LossProb = *loss
	switch *dataset {
	case "synthetic":
		// DefaultConfig's synthetic source.
	case "pressure":
		cfg.Dataset = wsnq.Dataset{Kind: wsnq.PressureData}
	default:
		sess.Fatalf("unknown dataset %q", *dataset)
	}
	var sc *wsnq.Scenario
	if *scenarioFile != "" {
		src, err := os.ReadFile(*scenarioFile)
		if err != nil {
			sess.Fatal(err)
		}
		if sc, err = wsnq.ParseScenario(string(src)); err != nil {
			sess.Fatal(err)
		}
		cfg.Nodes = sc.Nodes()
		cfg.Phi = sc.Phi()
		if *sloSpec == "" {
			*sloSpec = sc.SLOSpecs()
		}
		if *adaptSpec == "" {
			*adaptSpec = sc.AdaptPolicies()
		}
	}
	if *sloSpec != "" {
		if _, err := wsnq.ParseSLOSpecs(*sloSpec); err != nil {
			sess.Fatal(err)
		}
	}
	if *adaptSpec != "" {
		if _, err := wsnq.NewController(*adaptSpec); err != nil {
			sess.Fatal(err)
		}
	}

	// Query routes are handled first; everything else falls through to
	// the server's fixed surface (/metrics, /debug/pprof).
	srv := wsnq.NewServer(wsnq.ServerConfig{
		MaxQueries:       *maxQueries,
		ClientQuota:      *clientQuota,
		SeriesCapacity:   *seriesCap,
		SubscriberBuffer: *subBuffer,
		Workers:          *workers,
		SLO:              *sloSpec,
		Adapt:            *adaptSpec,
	})
	fleets := make([]string, 0, *fleetN)
	for i := 0; i < *fleetN; i++ {
		name := fmt.Sprintf("fleet%d", i)
		var err error
		if sc != nil {
			// Scenario boot: every fleet shares the scenario's deployment
			// (topology, data source, seed) and fault plan — queries
			// bring their own algorithms and alert rules.
			err = srv.AddFleetScenario(name, sc)
		} else {
			fcfg := cfg
			fcfg.Seed = *seed + int64(i)
			err = srv.AddFleet(name, fcfg)
		}
		if err != nil {
			sess.Fatal(err)
		}
		fleets = append(fleets, name)
	}

	if *load {
		// Load mode: bind loopback, flood our own API, report.
		bound, err := cli.ServeHTTP(ctx, "wsnq-serve", "127.0.0.1:0", srv.Handler())
		if err != nil {
			sess.Fatal(err)
		}
		report, err := serve.RunLoad(ctx, srv, "http://"+bound, serve.LoadConfig{
			Queries:     *loadQ,
			Clients:     *loadC,
			Rounds:      *loadR,
			Subscribers: *loadSubs,
			Reads:       *loadRd,
			Fleets:      fleets,
			Concurrency: *loadPar,
			Seed:        *seed,
		})
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Println(report)
		return
	}

	if err := sess.Serve(*httpAddr, srv.Handler()); err != nil {
		sess.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wsnq-serve: hosting %s (|N|=%d, φ=%.2f); POST /queries to register\n",
		strings.Join(fleets, ", "), cfg.Nodes, cfg.Phi)

	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for done := 0; *rounds == 0 || done < *rounds; {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			srv.Advance()
			done++
		}
	}
	fmt.Fprintf(os.Stderr, "wsnq-serve: clock stopped after %d rounds (%d queries, %d updates dropped)\n",
		srv.Round(), srv.Queries(), srv.Dropped())
	sess.Linger()
}
