GO ?= go
FUZZTIME ?= 5s
# The staticcheck release `make check` enforces when the binary is
# installed; install with
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
STATICCHECK_VERSION ?= 2025.1

.PHONY: help build test check bench bench-json bench-diff ladder-guard race vet fmt fuzz-smoke oracle telemetry alert prof chaos serve scenario slo adapt staticcheck

# help lists the targets; keep the `##` summaries next to the targets
# they describe.
help:
	@echo "wsnq targets:"
	@echo "  build       compile every package and tool, and build + vet the"
	@echo "              perfbench module"
	@echo "  test        run the full test suite"
	@echo "  check       the merge gate: vet + staticcheck + race + oracle + telemetry + alert + prof + chaos + serve + scenario + slo + adapt + fuzz-smoke"
	@echo "  vet         static analysis, plus the perfbench module's build + vet"
	@echo "  race        full suite under the race detector"
	@echo "  oracle      flight-recorder collectors, series-vs-recorded-events parity,"
	@echo "              the invariant oracle suite, the selective-vs-full"
	@echo "              convergecast walk differential, the one-pass flood"
	@echo "              vs walked flood differential, and the heap Dijkstra"
	@echo "              vs linear-scan routing-tree differential"
	@echo "  telemetry   registry race test and snapshot-determinism test under -race"
	@echo "  alert       series ring race-hammer, the shared windowed-level package,"
	@echo "              alert rule-engine determinism and zero-allocation observe"
	@echo "  chaos       seeded crash+burst fault smoke of HBC and IQ plus the"
	@echo "              three-way driver differential, under -race"
	@echo "  serve       query-service gate: registry race hammer, coalescing parity,"
	@echo "              the server's HTTP fall-through surface, seeded 1,000-query"
	@echo "              load smoke"
	@echo "  scenario    golden-scenario gate: DSL round-trips, pinned replay digests,"
	@echo "              byte-exact re-recording, live-vs-replay differential,"
	@echo "              round-level-only live collectors, replay speedup, fleet boot"
	@echo "  slo         SLO gate: spec grammar round-trips, budget-arithmetic"
	@echo "              goldens, zero-allocation observe, serve /slo surface,"
	@echo "              and the live-vs-replay budget-trajectory differential"
	@echo "  adapt       closed-loop adaptation gate: policy grammar round-trips,"
	@echo "              controller hysteresis/cooldown determinism, the pinned"
	@echo "              golden adaptive study, cross-driver decision parity,"
	@echo "              and the adapt-clause scenario goldens"
	@echo "  prof        profiling gate: attribution unit suite, golden attribution"
	@echo "              snapshot, /profilez + pprof endpoint coverage, the"
	@echo "              allocation-ceiling regression guard, the"
	@echo "              round-path allocation ratchet (run three times, so a"
	@echo "              count that varies between runs fails the gate), and"
	@echo "              the Figure 7 pass allocation ceiling"
	@echo "  fuzz-smoke  short fresh-input budget for every fuzz target (codecs,"
	@echo "              parsers, the cell vector, the disc graph)"
	@echo "  bench       run the Go benchmarks of the root package, internal/sim,"
	@echo "              internal/scenario (the round-record reader),"
	@echo "              internal/alert (the rule engine) and internal/wsn"
	@echo "              (the routing-tree build) with -benchmem"
	@echo "  bench-json  measure tracked hot paths into the day's first free"
	@echo "              BENCH_<date>[b|c|…].json; the"
	@echo "              regression guard (TestBenchRegressionGuard) diffs the"
	@echo "              newest two sessions and fails on >15% hot-path slowdown"
	@echo "              or a broken allocs/op ceiling"
	@echo "  bench-diff  benchstat-style delta table between the two newest"
	@echo "              committed BENCH_*.json sessions"
	@echo "  ladder-guard every layered rung of the bench-json ladder (prof, series,"
	@echo "              SLO, adapt) vs the 2% budget over its base (idle machine)"
	@echo "  fmt         gofmt the tree"

# perfbench/ is its own module importing internal packages, so
# `./...` does not reach it. build and vet (and through vet, check)
# compile and vet it explicitly: an internal API change that breaks
# the benchmark fails the gate.
PERFBENCH = cd perfbench && $(GO) build -o /dev/null . && $(GO) vet .

build:
	$(GO) build ./...
	$(PERFBENCH)

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(PERFBENCH)

race:
	$(GO) test -race ./...

# oracle runs the flight-recorder suite: collectors (including the
# round-level contract, TestRoundCollectorSkipsHops), the series
# ingester against a fold of a lossy, faulty run's recorded events
# (TestSeriesMatchesEventFold), the invariant checker, and the
# differential tests against the centralized oracle; then the walk
# differential: every algorithm with range-selective convergecasts
# against a full-walk twin on the same seeds, loss-free, lossy and
# faulty (TestSelectiveWalkMatchesFullWalk), plus the walk's own
# reference and speaker-path tests; and the flood differential: an
# untraced fault-free runtime's one-pass flood charge against a traced
# twin's walk, bit for bit (TestFloodMatchesWalk); and the tree
# differential: the heap Dijkstra against the linear-scan reference on
# tie-heavy fixtures and seeded random placements, parent for parent
# (TestShortestPathTreeMatchesScan).
oracle:
	$(GO) test ./internal/trace/...
	$(GO) test -count=1 -run '^(TestSelectiveWalkMatchesFullWalk|TestConvergecastInboxMatchesNaive|TestConvergecastVisitsSpeakerPaths|TestFloodMatchesWalk)$$' -v ./internal/sim/
	$(GO) test -count=1 -run '^TestShortestPathTreeMatchesScan$$' -v ./internal/wsn/

# telemetry gates the metrics registry: the concurrent-hammer test must
# pass under the race detector and snapshots must encode
# deterministically.
telemetry:
	$(GO) test -race -run '^(TestRegistryConcurrent|TestSnapshotDeterminism)$$' -v ./internal/telemetry/

# alert gates the streaming-observability layer: the series ring must
# survive concurrent ingest/read hammering under the race detector, the
# windowed-level package the alert, SLO and adaptation layers share
# (ring, standing level, bounded log with absolute cursors) must pass
# its suite, and the alert rule engine must produce byte-identical logs
# across runs and observe a transition-free round without allocating.
alert:
	$(GO) test -race -run '^TestSeriesRingRace$$' -v ./internal/series/
	$(GO) test -v ./internal/level/
	$(GO) test -run '^(TestRuleEngineDeterminism|TestObserveAllocatesNothing)$$' -v ./internal/alert/

# prof gates the profiling layer: the recorder/report unit suite, the
# benchfmt schema-v3 + diff-table suite, the telemetry exposition
# endpoints (/profilez, /metrics runtime gauges, /debug/pprof labels),
# the golden attribution snapshot of the 60-node lossy study, the
# allocation-ceiling arithmetic behind the regression guard, and the
# round-path allocation ratchet (TestRoundAllocs: each standard
# algorithm's warmed |N|=500 round under its ceiling, run three times
# so an allocation count that varies between runs shows up), and the
# figure-pass allocation ceiling (TestFigureAllocs: one warm Figure 7
# pass in the sweep benchmark's shape, per simulated node-round). The timing
# half of the layer (the ≤2% overhead budget) lives in ladder-guard,
# which needs an idle machine.
prof:
	$(GO) test -v ./internal/prof/
	$(GO) test -v ./internal/benchfmt/
	$(GO) test -short -run '^(TestProfilezEndpoint|TestMetricsPublishRuntime|TestDebugPprofProfile)$$' -v ./internal/telemetry/
	$(GO) test -count=1 -run '^(TestProfAttributionGolden|TestProfNamesLCLLSTopAllocPhase|TestProfResetAndReuse|TestBenchRegressionGuard|TestBenchGuardArithmetic)$$' -v .
	$(GO) test -count=3 -run '^(TestRoundAllocs|TestFigureAllocs)$$' -v .

# chaos is the robustness gate: the seeded crash+burst smoke of HBC
# and IQ through the engine, the public API, the oracle's fault mode,
# the pinned golden recovery study, and the three-way driver
# differential (engine run 0, Simulation, and a served query recover
# identically from loss desyncs, crashes, and controller actions) —
# all under the race detector.
chaos:
	$(GO) test -race -run '^(TestEngineUnderFaults|TestEngineFaultDeterminism|TestEngineFaultPartition)$$' -v ./internal/experiment/
	$(GO) test -race -run '^TestDifferentialUnderFaults$$' -v ./internal/trace/oracle/
	$(GO) test -race -run '^(TestRunWithFaults|TestSimulationSetFaults|TestGoldenRecoveryStudy|TestDriversAgree)$$' -v .

# serve gates the continuous query service: the registry's concurrent
# register/advance/subscribe hammer under the race detector (same-key
# twins join and leave shared protocol instances), the HTTP-surface
# branch tests, the coalescing parity test (a query sharing a protocol
# instance reads what it reads alone; a profiled registry shares
# none), the public server's HTTP fall-through surface (/metrics and
# /debug/pprof served, every unfed telemetry endpoint 404, /profilez
# only with a profiler, GET /slo the registry's own view), and the
# seeded load smoke — 1,000 queries multiplexed over one shared
# 60-node deployment, asserting nonzero sustained throughput, zero
# dropped subscriber answers under quota, and engaged series
# downsampling.
serve:
	$(GO) test -race -run '^(TestServeHammer|TestHandlerBranches|TestSubscribeBackpressure|TestCoalescedQueriesMatchAlone|TestProfiledRegistryRunsQueriesAlone)$$' -v ./internal/serve/
	$(GO) test -count=1 -run '^(TestServeDeterminism|TestServeFallThroughServesOnlyFedEndpoints|TestServeLoadSmoke)$$' -v .

# scenario gates the golden scenarios: the DSL parser/printer
# round-trip suite, the record writers and outcome digest matching
# encoding/json, the committed recordings replaying to their pinned
# outcome digests and re-recording byte for byte, the live-vs-replay
# differential, the live run's
# collectors (TestLiveRunAttachesRoundCollectorsOnly: only the
# round-level series ingester, no per-hop events), the replay speedup
# floor, and the scenario-booted server fleet matching a standalone
# run. Regenerate recordings with WSNQ_REGEN=1 after an intentional
# behavior change.
scenario:
	$(GO) test -run '^Test' -v ./internal/scenario/
	$(GO) test -count=1 -run '^(TestGoldenScenarioReplays|TestGoldenRecordingsRerecord|TestScenarioLiveReplayDifferential|TestScenarioReplaySpeedup|TestScenarioServe|TestScenarioSimulationFaults)$$' -v .

# slo gates the SLO engine: the spec grammar and budget/burn-rate unit
# suite (including the pinned budget-arithmetic goldens and the
# zero-allocation transition-free observe), the serve
# layer's /slo surface and update stamping, and the differential test
# proving a live run and a replay of its recording produce identical
# budget trajectories and burn-rate transitions. The timing half (the
# ≤2% per-round overhead budget) lives in ladder-guard.
slo:
	$(GO) test -v ./internal/slo/
	$(GO) test -race -run '^TestSLO' -v ./internal/serve/
	$(GO) test -count=1 -run '^(TestSLOBudgetGolden|TestSLOLiveReplayDifferential)$$' -v .

# adapt gates the closed-loop adaptation layer: the policy grammar and
# controller unit suite (round-trips, hysteresis, cooldowns, replay
# determinism), the pinned golden adaptive study — the controller must
# strictly beat the best static algorithm under the golden chaos plan —
# and the cross-driver parity tests proving the batch engine, the
# round-by-round Simulation, and the parallel grid all derive one
# decision log. The timing half (the ≤2% per-round overhead budget)
# lives in ladder-guard.
adapt:
	$(GO) test -v ./internal/adapt/
	$(GO) test -count=1 -run '^(TestGoldenAdaptiveStudy|TestAdaptDecisionsDeterministicAcrossParallelism|TestSimulationControllerMatchesEngine|TestControllerResetForReuse|TestControllerCanonicalString)$$' -v .

# fuzz-smoke gives each fuzz target a short budget of fresh inputs on
# top of the committed corpus (go test -fuzz accepts one target at a
# time, hence one invocation per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFragmentRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzReassembleRobust$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramCodec$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzBucketsIndex$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzCellVector$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeRecord$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayHeader$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/adapt/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime $(FUZZTIME) ./internal/alert/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpecs$$' -fuzztime $(FUZZTIME) ./internal/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzDiscGraph$$' -fuzztime $(FUZZTIME) ./internal/wsn/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTracesCSV$$' -fuzztime $(FUZZTIME) ./internal/data/
	$(GO) test -run '^$$' -fuzz '^FuzzRegisterSpec$$' -fuzztime $(FUZZTIME) ./internal/serve/

# staticcheck is enforced when the pinned binary is installed: any
# finding fails the gate. Machines without it skip with an install
# hint, so the gate stays dependency-free; install the pinned release
# to run what CI runs.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || exit 1; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# check is the gate every change must pass: static analysis (vet
# always, staticcheck when installed — see the staticcheck target),
# the full suite under the race detector (the parallel engine makes
# this the interesting configuration), the oracle suite, the telemetry
# gate, the observability gate, the profiling gate, the chaos gate,
# the query-service gate, the golden-scenario gate, the SLO gate, the
# closed-loop adaptation gate, and a fuzz smoke run.
check: vet staticcheck race oracle telemetry alert prof chaos serve scenario slo adapt fuzz-smoke

# bench runs the Go benchmarks with -benchmem: the root package's
# rounds, the radio (internal/sim), the round-record reader
# (internal/scenario), the rule engine (internal/alert) and the
# routing-tree build (internal/wsn, BenchmarkBuildTree at |N| = 500 and
# 2000).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/sim/ ./internal/scenario/ ./internal/alert/ ./internal/wsn/

# bench-json appends one session to the perf trajectory: commit the
# produced BENCH_<date>.json (or, when the day already has a session,
# the first free BENCH_<date>b.json, c, …) and TestBenchRegressionGuard
# will diff it against the previous session.
bench-json: build
	$(GO) run ./cmd/wsnq-bench -json

# ladder-guard times every layered rung of the bench-json ladder
# against its base the way the session does (interleaved, fastest of
# six reps per side) and fails a rung that costs more than 2% over its
# base. Timing sensitive — run on an idle machine.
ladder-guard:
	LADDER_GUARD=1 $(GO) test -count=1 -run '^TestLadderOverheadGuard$$' -v ./cmd/wsnq-bench/

# bench-diff prints the benchstat-style per-path delta table between
# the two newest committed sessions — the table behind any regression
# guard failure.
bench-diff:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "need two BENCH_*.json sessions to diff"; exit 1; fi; \
	$(GO) run ./cmd/wsnq-bench -diff $$1 $$2

fmt:
	gofmt -l -w .
