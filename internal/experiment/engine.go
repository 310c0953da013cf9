package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/fault"
	"wsnq/internal/prof"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/telemetry"
	"wsnq/internal/trace"
)

// Options configures the execution engine shared by RunContext,
// CompareContext, and SweepContext.
type Options struct {
	// Parallelism bounds the number of simulation runs executing
	// concurrently. 0 (the default) uses runtime.GOMAXPROCS(0); 1
	// forces strictly sequential execution. Per-run seeds are derived
	// from Config.Seed alone, runs are aggregated in run order, and
	// deployments are immutable, so results are bit-identical at every
	// setting.
	Parallelism int

	// Progress, when non-nil, is called after each completed grid job
	// (one algorithm over one run of one sweep cell) with the number of
	// finished and total jobs. Calls are serialized and done increases
	// by one per call, so it is safe to drive a progress bar from any
	// goroutine-unsafe writer.
	Progress func(done, total int)

	// Trace, when non-nil, attaches a flight recorder to the grid: it
	// is called once per job, before the job runs, and may return a
	// collector (nil to leave that job untraced) that receives the
	// job's full event stream. Setting Trace forces strictly sequential
	// execution in deterministic grid order — cells, then algorithms,
	// then runs — so a shared collector never sees interleaved streams
	// and JSONL output is reproducible.
	Trace func(job TraceJob) trace.Collector

	// Telemetry, when non-nil, receives live engine and simulation
	// metrics while the grid runs: job progress and ETA gauges
	// (engine.jobs_total, engine.progress, engine.eta_seconds),
	// throughput counters (engine.jobs_done, engine.jobs_failed),
	// per-job wall-time histograms (engine.job_seconds, plus one
	// per-algorithm series), and aggregate result histograms over the
	// finished jobs (sim.max_node_j_per_round, sim.total_energy_j,
	// sim.frames_per_round, sim.bits_per_round, sim.lifetime_rounds).
	// The registry is safe for concurrent use, so — unlike Trace —
	// telemetry alone does not force sequential execution.
	Telemetry *telemetry.Registry

	// Series, when non-nil, records a per-round time series for every
	// grid job into the store, keyed "cellLabel/algorithmName" (just
	// the algorithm name outside sweeps). Like Trace it forces strictly
	// sequential execution so each key's rounds land in deterministic
	// grid order.
	Series *series.Store

	// KeyPrefix, when non-empty, prepends "<prefix>/" to every series
	// key the engine writes (and streams through Alerts), so several
	// studies can share one store — or one alert engine — without their
	// keys colliding. It has no effect when neither Series nor Alerts
	// is set.
	KeyPrefix string

	// Alerts, when non-nil, streams every job's raw per-round points
	// through the alert rule engine (window state resets at each run
	// boundary via StartRun). Implies the same sequential execution as
	// Series; when Series is nil a small private store still derives
	// the points but retains almost nothing.
	Alerts *alert.Engine

	// PointSink, when non-nil, observes every raw span-1 series point
	// the engine ingests — after the alert rules — with the final
	// (prefixed) series key, the store-assigned round index, and the
	// driver's verdict for the round the point closes. It is the
	// capture hook of the scenario record/replay layer
	// (internal/scenario). Like Series it forces strictly sequential
	// execution; when neither Series nor Alerts is set, a minimal
	// private store still derives the points.
	PointSink PointSink

	// Prof, when non-nil, attributes every job's CPU time and heap
	// allocations to algorithm×phase buckets in the recorder, and runs
	// each job under pprof goroutine labels (algorithm, run, cell, and
	// the current phase) so sampling profiles can be sliced the same
	// way. Like Trace it forces strictly sequential execution: the
	// allocation counters are global to the process, so spans are only
	// attributable when one run executes at a time. Per-round runtime
	// health metrics (GC pause p95, live heap, goroutines, allocs) are
	// additionally folded into the series points when a series consumer
	// is attached too.
	Prof *prof.Recorder

	// Faults, when non-nil, attaches the fault plan (crash schedules,
	// Gilbert–Elliott bursty links, sink partitions — see
	// internal/fault) to every simulation run, together with the ARQ
	// recovery layer. Injector seeds derive from Config.Seed and the
	// run index alone, so fault timing is reproducible and independent
	// of scheduling. Faults do not force sequential execution: each
	// run's runtime owns a private topology clone and injector.
	Faults *fault.Plan

	// ARQ overrides the link-layer acknowledgement/retransmission
	// policy used when Faults is set. Nil selects sim.DefaultARQ().
	ARQ *sim.ARQConfig

	// Adapt, when non-nil with a non-empty policy set, attaches a
	// closed-loop adaptation controller (internal/adapt) to every grid
	// job: a fresh controller per run observes that run's raw per-round
	// points and applies fired policies — protocol switches, Ξ
	// rescaling, proactive reroots — to the run's own runtime between
	// rounds. Controllers are strictly per-run state driven only by
	// per-run streams, so — unlike Trace or Series — adaptation does
	// not force sequential execution and grids stay bit-identical at
	// every Parallelism setting.
	Adapt *AdaptOptions
}

// PointSink observes one series point of key together with the
// driver's verdict for the round the point closes.
type PointSink func(key string, p series.Point, v Verdict)

// AdaptOptions configures the engine's closed-loop adaptation.
type AdaptOptions struct {
	// Policies is the declarative policy set every run's controller
	// evaluates (adapt.Parse). An empty set disables adaptation.
	Policies []adapt.Policy

	// Log, when non-nil, receives each finished job's decision log
	// together with the job identity and its series key. With more than
	// one worker it is called from concurrent goroutines — the callback
	// must synchronize; order across jobs then follows scheduling, so
	// deterministic consumers should reorder by (cell, algorithm, run).
	Log func(j TraceJob, key string, ds []adapt.Decision)
}

// TraceJob identifies one grid job handed to Options.Trace.
type TraceJob struct {
	Cell          int    // sweep cell (0 for plain runs/comparisons)
	CellLabel     string // the cell's variant label ("" outside sweeps)
	Algorithm     int    // index into the algorithm list
	AlgorithmName string
	Run           int // run (repetition) index
}

// SeriesKeyFor computes the series key the engine writes for a grid
// job: "[prefix/][cellLabel/]algorithmName", falling back to "algN"
// for unnamed factories. Consumers that correlate an Options.Trace
// callback with the points arriving at Options.PointSink (the scenario
// recorder) use it to derive the identical key.
func SeriesKeyFor(j TraceJob, prefix string) string {
	key := j.name()
	if j.CellLabel != "" {
		key = j.CellLabel + "/" + key
	}
	if prefix != "" {
		key = prefix + "/" + key
	}
	return key
}

// name is the job's algorithm name, "algN" for an unnamed factory.
func (j TraceJob) name() string {
	if j.AlgorithmName == "" {
		return fmt.Sprintf("alg%d", j.Algorithm)
	}
	return j.AlgorithmName
}

// workers resolves the effective worker count. Tracing — including the
// series/alert collectors built on it — implies one worker: event
// streams are only meaningful in deterministic order.
func (o Options) workers() int {
	if o.Trace != nil || o.Series != nil || o.Alerts != nil || o.PointSink != nil || o.Prof != nil {
		return 1
	}
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunContext executes the cell for one algorithm and averages over
// cfg.Runs, fanning the runs out over the engine's worker pool. The
// factory is invoked once per run, possibly from concurrent goroutines,
// and must return a fresh instance each time. The context cancels the
// remaining runs; the first error (or ctx.Err()) is returned.
func RunContext(ctx context.Context, cfg Config, factory Factory, opts Options) (Metrics, error) {
	return RunNamedContext(ctx, cfg, "", factory, opts)
}

// RunNamedContext is RunContext with the algorithm's display name
// attached: trace jobs, series keys, and profiling scopes then carry
// the name instead of the positional algN fallback.
func RunNamedContext(ctx context.Context, cfg Config, name string, factory Factory, opts Options) (Metrics, error) {
	res, err := runGrid(ctx, []Config{cfg}, nil, []NamedFactory{{Name: name, New: factory}}, opts)
	if err != nil {
		return Metrics{}, err
	}
	return res[0][0], nil
}

// CompareContext runs several algorithms over cfg and returns their
// metrics in the order of algs. All algorithms of one run execute
// against the same shared Deployment — identical topology, SOM
// placement, and measurement series — which the engine builds exactly
// once per run; this makes the "identical deployments" guarantee of a
// comparison structural rather than a property of seed re-derivation.
func CompareContext(ctx context.Context, cfg Config, algs []NamedFactory, opts Options) ([]Metrics, error) {
	res, err := runGrid(ctx, []Config{cfg}, nil, algs, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SweepContext runs every (variant × algorithm × run) cell of a sweep
// on the engine's worker pool and collects a Table. Deployments are
// shared across the algorithms of each (variant, run) pair.
func SweepContext(ctx context.Context, base Config, title, rowLabel string, variants []Variant, algs []NamedFactory, opts Options) (*Table, error) {
	t := &Table{
		Title:    title,
		RowLabel: rowLabel,
		Cells:    make(map[string]Metrics),
	}
	for _, a := range algs {
		t.Algorithms = append(t.Algorithms, a.Name)
	}
	cfgs := make([]Config, len(variants))
	labels := make([]string, len(variants))
	for i, v := range variants {
		t.Variants = append(t.Variants, v.Label)
		labels[i] = v.Label
		cfg := base
		if v.Mutate != nil {
			v.Mutate(&cfg)
		}
		cfgs[i] = cfg
	}
	res, err := runGrid(ctx, cfgs, labels, algs, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", title, err)
	}
	for ci, v := range labels {
		for ai, a := range algs {
			t.Cells[cellKey(v, a.Name)] = res[ci][ai]
		}
	}
	return t, nil
}

// depSlot lazily builds the shared deployment of one (cell, run) pair.
// Whichever algorithm job gets there first builds it; the others reuse
// the result read-only.
type depSlot struct {
	once sync.Once
	dep  *Deployment
	err  error
}

func (s *depSlot) get(cfg Config, run int) (*Deployment, error) {
	s.once.Do(func() { s.dep, s.err = BuildDeployment(cfg, run) })
	return s.dep, s.err
}

// gridJob is one unit of the fan-out: one algorithm over one run of one
// cell, identified by the TraceJob its trace callback, series key, adapt
// log, profiler labels and error prefix all derive from. idx is the
// job's rank in the deterministic cell-major order, used to pick a
// stable error when several jobs fail.
type gridJob struct {
	TraceJob
	idx int
}

// runGrid executes the full (cell × algorithm × run) grid on a bounded
// worker pool and returns the per-cell, per-algorithm metrics averaged
// over runs. Scheduling never influences the numbers: per-run results
// land in run-indexed slots and are reduced in run order. On failure
// the engine cancels the remaining jobs and returns the error of the
// earliest failed job in grid order (when several jobs fail, which of
// them executed first can depend on scheduling).
func runGrid(ctx context.Context, cfgs []Config, cellLabels []string, algs []NamedFactory, opts Options) ([][]Metrics, error) {
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	jobs := make([]gridJob, 0, len(cfgs)*len(algs))
	perRun := make([][][]Metrics, len(cfgs)) // [cell][alg][run]
	deps := make([][]depSlot, len(cfgs))     // [cell][run]
	for ci := range cfgs {
		perRun[ci] = make([][]Metrics, len(algs))
		deps[ci] = make([]depSlot, cfgs[ci].Runs)
		label := ""
		if cellLabels != nil {
			label = cellLabels[ci]
		}
		for ai, a := range algs {
			perRun[ci][ai] = make([]Metrics, cfgs[ci].Runs)
			for r := 0; r < cfgs[ci].Runs; r++ {
				id := TraceJob{Cell: ci, CellLabel: label, Algorithm: ai, AlgorithmName: a.Name, Run: r}
				jobs = append(jobs, gridJob{TraceJob: id, idx: len(jobs)})
			}
		}
	}
	total := len(jobs)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	if opts.Telemetry != nil {
		opts.Telemetry.Gauge("engine.jobs_total").Set(float64(total))
		opts.Telemetry.Gauge("engine.progress").Set(0)
	}

	var (
		mu       sync.Mutex
		done     int
		firstErr error
		errIdx   = total
	)
	fail := func(idx int, err error) {
		mu.Lock()
		if idx < errIdx {
			errIdx, firstErr = idx, err
		}
		mu.Unlock()
		if opts.Telemetry != nil {
			opts.Telemetry.Counter("engine.jobs_failed").Inc()
		}
		cancel()
	}
	finish := func() {
		mu.Lock()
		done++
		d := done
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
		mu.Unlock()
		if opts.Telemetry != nil {
			opts.Telemetry.Counter("engine.jobs_done").Inc()
			opts.Telemetry.Gauge("engine.progress").Set(float64(d) / float64(total))
			elapsed := time.Since(start)
			eta := elapsed / time.Duration(d) * time.Duration(total-d)
			opts.Telemetry.Gauge("engine.eta_seconds").Set(eta.Seconds())
		}
	}
	record := func(alg string, m Metrics, took time.Duration) {
		reg := opts.Telemetry
		if reg == nil {
			return
		}
		reg.Histogram("engine.job_seconds").Observe(took.Seconds())
		if alg != "" {
			reg.Histogram("engine.job_seconds." + alg).Observe(took.Seconds())
		}
		reg.Histogram("sim.max_node_j_per_round").Observe(m.MaxNodeEnergyPerRound)
		reg.Histogram("sim.total_energy_j").Observe(m.TotalEnergy)
		reg.Histogram("sim.frames_per_round").Observe(m.FramesPerRound)
		reg.Histogram("sim.bits_per_round").Observe(m.BitsPerRound)
		reg.Histogram("sim.lifetime_rounds").Observe(m.LifetimeRounds)
	}

	// One store feeds both consumers: Options.Series when given, else
	// (with only Alerts set) a minimal private store that merely
	// derives the per-round points the engine streams to the rules.
	seriesStore := opts.Series
	if opts.Alerts != nil || opts.PointSink != nil {
		if seriesStore == nil {
			seriesStore = series.New(1)
		}
	}
	if opts.Alerts != nil {
		opts.Alerts.DefaultBudget(cfgs[0].Energy.InitialBudget)
	}
	run := func(j gridJob) {
		defer finish()
		if ctx.Err() != nil {
			return // canceled; leave the slot empty
		}
		jobStart := time.Now()
		cfg := cfgs[j.Cell]
		key := SeriesKeyFor(j.TraceJob, opts.KeyPrefix)
		dep, err := deps[j.Cell][j.Run].get(cfg, j.Run)
		var ctl *adapt.Controller
		if err == nil && opts.Adapt != nil && len(opts.Adapt.Policies) > 0 {
			// One fresh controller per run: its hysteresis state and
			// decision log are pure functions of this run's point stream,
			// which is what keeps parallel grids bit-identical.
			ctl, err = adapt.NewController(cfg.Energy.InitialBudget, opts.Adapt.Policies...)
		}
		if err == nil {
			var tc trace.Collector
			if opts.Trace != nil {
				tc = opts.Trace(j.TraceJob)
			}
			mkTrace := func(rt *sim.Runtime, last *Verdict) trace.Collector {
				store := seriesStore
				if store == nil {
					if ctl == nil {
						return tc
					}
					// A per-run private store derives the controller's
					// point stream without sharing state across workers —
					// adaptation alone never forces sequential execution.
					store = series.New(1)
				}
				// The series recorder samples the fresh runtime's
				// cumulative counters at round boundaries instead of
				// counting events — hence the late binding.
				var sinks []series.Sink
				if opts.Alerts != nil {
					opts.Alerts.StartRun(key)
					sinks = append(sinks, opts.Alerts.Observe)
				}
				if opts.PointSink != nil {
					sinks = append(sinks, func(key string, p series.Point) { opts.PointSink(key, p, *last) })
				}
				if ctl != nil {
					sinks = append(sinks, ctl.Observe)
				}
				sampler := SeriesSampler(rt)
				if opts.Prof != nil {
					sampler = ProfSeriesSampler(rt)
				}
				return trace.Multi(tc, store.IngestTotals(key, sampler, sinks...))
			}
			rig := Rig{Faults: opts.Faults, ARQ: opts.ARQ, FaultSeed: FaultSeed(cfg, j.Run), Ctl: ctl}
			var m Metrics
			if opts.Prof != nil {
				// The job runs under pprof goroutine labels so sampling
				// profiles slice by algorithm/run/cell; the attached
				// handle adds the live phase label and books the
				// CPU/allocation spans.
				labels := []string{"algorithm", j.name(), "run", strconv.Itoa(j.Run)}
				if j.CellLabel != "" {
					labels = append(labels, "cell", j.CellLabel)
				}
				pprof.Do(ctx, pprof.Labels(labels...), func(c context.Context) {
					rig.Prof = opts.Prof.Attach(c, j.name())
					m, err = runOn(cfg, dep, algs[j.Algorithm].New(), mkTrace, rig)
				})
			} else {
				m, err = runOn(cfg, dep, algs[j.Algorithm].New(), mkTrace, rig)
			}
			if err == nil {
				if ctl != nil && opts.Adapt.Log != nil {
					opts.Adapt.Log(j.TraceJob, key, ctl.Decisions())
				}
				perRun[j.Cell][j.Algorithm][j.Run] = m
				record(j.AlgorithmName, m, time.Since(jobStart))
				return
			}
		}
		prefix := ""
		if j.CellLabel != "" {
			prefix = j.CellLabel + " / "
		}
		if j.AlgorithmName != "" {
			prefix += j.AlgorithmName + " / "
		}
		fail(j.idx, fmt.Errorf("%srun %d: %w", prefix, j.Run, err))
	}

	workers := opts.workers()
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for _, j := range jobs {
			run(j)
		}
	} else {
		ch := make(chan gridJob)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for j := range ch {
					run(j)
				}
			}()
		}
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([][]Metrics, len(cfgs))
	for ci := range cfgs {
		out[ci] = make([]Metrics, len(algs))
		for ai := range algs {
			out[ci][ai] = aggregate(perRun[ci][ai])
		}
	}
	return out, nil
}
