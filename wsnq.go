// Package wsnq is a simulation library for exact continuous quantile
// query processing in hierarchical wireless sensor networks,
// reproducing Niedermayer et al., "Continuous Quantile Query Processing
// in Wireless Sensor Networks" (EDBT 2014).
//
// It provides the paper's two contributions — HBC, a histogram-based
// continuous algorithm whose bucket count is chosen by a Lambert-W cost
// model, and IQ, an interval-based heuristic that exploits temporal
// correlation to answer most rounds with a single convergecast — along
// with the evaluated baselines (TAG, POS, and the two LCLL refinement
// variants), a deterministic energy-accounted network simulator, the
// paper's synthetic and air-pressure workloads, and the full benchmark
// harness regenerating every figure of the evaluation section.
//
// Quick start:
//
//	cfg := wsnq.DefaultConfig()
//	cfg.Nodes = 200
//	m, err := wsnq.Run(cfg, wsnq.IQ)
//	// m.MaxNodeEnergyPerRound, m.LifetimeRounds, ...
//
// Studies execute on a parallel engine that fans the independent
// simulation runs out over a bounded worker pool while keeping results
// bit-identical to sequential execution. Long sweeps are cancellable
// through the context-first entry points, and functional options tune
// the engine:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := wsnq.CompareContext(ctx, cfg, wsnq.StandardAlgorithms(),
//		wsnq.WithParallelism(8),
//		wsnq.WithProgress(func(done, total int) { fmt.Printf("\r%d/%d", done, total) }))
//
// For round-by-round control (live monitoring, custom metrics), use
// NewSimulation. For the paper's evaluation sweeps, use the Figure API
// (Figures, RunFigure, RunFigureContext) or `go test -bench .`.
package wsnq

import (
	"context"
	"fmt"
	"io"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/telemetry"
	"wsnq/internal/trace"
)

// Algorithm names a quantile protocol.
type Algorithm string

// The available algorithms.
const (
	// TAG is the collect-k in-network aggregation baseline [17].
	TAG Algorithm = "TAG"
	// POS is the continuous binary-search algorithm of Cox et al. [9].
	POS Algorithm = "POS"
	// LCLLH is Liu et al.'s histogram algorithm with hierarchical
	// (recursive zoom) refining [16].
	LCLLH Algorithm = "LCLL-H"
	// LCLLS is the same with slip (sliding window) refining.
	LCLLS Algorithm = "LCLL-S"
	// HBC is the paper's Histogram-Based Continuous algorithm (§4.1).
	HBC Algorithm = "HBC"
	// HBCNB is HBC with the §4.1.2 threshold-broadcast elimination.
	HBCNB Algorithm = "HBC-NB"
	// IQ is the paper's Interval-based Quantiles heuristic (§4.2).
	IQ Algorithm = "IQ"
	// Adaptive switches between IQ and HBC at runtime (§4.2 future work).
	Adaptive Algorithm = "ADAPT"
)

// Algorithms lists every available algorithm in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{TAG, POS, LCLLH, LCLLS, HBC, HBCNB, IQ, Adaptive}
}

// StandardAlgorithms lists the §5.1.6 evaluation line-up.
func StandardAlgorithms() []Algorithm {
	return []Algorithm{TAG, POS, LCLLH, LCLLS, HBC, IQ}
}

// factory returns the constructor for an algorithm name. Name
// resolution lives in experiment.ResolveAlgorithm so the scenario DSL
// and the public constants share one vocabulary.
func factory(a Algorithm) (experiment.Factory, error) {
	f, err := experiment.ResolveAlgorithm(string(a))
	if err != nil {
		return nil, fmt.Errorf("wsnq: unknown algorithm %q", a)
	}
	return f, nil
}

// DatasetKind selects the measurement workload.
type DatasetKind string

// The two evaluation workloads of §5.1.
const (
	// SyntheticData is the interpolated-noise field with sinusoidal
	// drift (§5.1.2).
	SyntheticData DatasetKind = "synthetic"
	// PressureData is the air-pressure trace set with SOM placement
	// (§5.1.3).
	PressureData DatasetKind = "pressure"
	// TraceData runs user-supplied measurement series (one per
	// measurement), placed like the pressure dataset.
	TraceData DatasetKind = "trace"
)

// Dataset configures the workload.
type Dataset struct {
	Kind DatasetKind

	// Synthetic parameters.
	Universe      int     // distinct integer values (default 2^16)
	Period        int     // sinusoid period τ in rounds (default 63)
	NoisePct      float64 // per-node noise ψ in percent (default 10)
	AmplitudeFrac float64 // sinusoid amplitude as a universe fraction
	SpreadFrac    float64 // central universe fraction holding the values (default 1)

	// Pressure parameters.
	Skip        int  // keep every Skip-th sample (default 1)
	Pessimistic bool // universe [856, 1086] hPa instead of observed

	// Series supplies the measurements for TraceData: one integer
	// series per measurement (Nodes·ValuesPerNode series of equal
	// length). Rounds beyond the series length wrap around. See
	// ReadTraceCSV for loading them from a file.
	Series [][]int
	// UniverseLo/UniverseHi optionally widen the assumed value range of
	// TraceData beyond the observed one (both zero = observed range).
	UniverseLo, UniverseHi int
}

// Config assembles a simulation study (defaults follow §5.1.7).
type Config struct {
	Nodes      int     // number of sensor nodes |N|
	Area       float64 // deployment region side in meters
	RadioRange float64 // radio range ρ in meters
	Phi        float64 // quantile fraction φ (0.5 = median)
	Rounds     int     // measured rounds per run
	Runs       int     // independent simulation runs to average
	Seed       int64   // base seed (runs derive distinct seeds)
	LossProb   float64 // per-hop convergecast loss probability

	// ValuesPerNode models nodes that take several measurements per
	// round, via the paper's artificial-children reduction (§2).
	// Default 1. The quantile then ranges over all |N|·ValuesPerNode
	// measurements.
	ValuesPerNode int

	// BFSTree switches the routing tree from the paper's Euclidean
	// shortest-path tree to a hop-count (BFS) tree.
	BFSTree bool

	Dataset Dataset
}

// DefaultConfig returns the paper's default cell: 500 nodes in a
// 200×200 m region, ρ = 35 m, the median query, 250 rounds × 20 runs,
// synthetic data with τ = 63 and ψ = 10 %.
func DefaultConfig() Config {
	return Config{
		Nodes:      500,
		Area:       200,
		RadioRange: 35,
		Phi:        0.5,
		Rounds:     250,
		Runs:       20,
		Seed:       1,
		Dataset: Dataset{
			Kind:     SyntheticData,
			Universe: 1 << 16,
			Period:   63,
			NoisePct: 10,
		},
	}
}

// toInternal converts the public configuration to the harness form.
func (c Config) toInternal() (experiment.Config, error) {
	cfg := experiment.Default()
	cfg.Nodes = c.Nodes
	cfg.Area = c.Area
	cfg.RadioRange = c.RadioRange
	cfg.Phi = c.Phi
	cfg.Rounds = c.Rounds
	cfg.Runs = c.Runs
	cfg.Seed = c.Seed
	cfg.LossProb = c.LossProb
	cfg.ValuesPerNode = c.ValuesPerNode
	if c.BFSTree {
		cfg.Tree = experiment.TreeBFS
	}
	switch c.Dataset.Kind {
	case SyntheticData, "":
		cfg.Dataset = experiment.DatasetSpec{
			Kind: experiment.Synthetic,
			Synthetic: data.SyntheticConfig{
				Universe:      c.Dataset.Universe,
				Period:        c.Dataset.Period,
				NoisePct:      c.Dataset.NoisePct,
				AmplitudeFrac: c.Dataset.AmplitudeFrac,
				SpreadFrac:    c.Dataset.SpreadFrac,
			},
		}
		if cfg.Dataset.Synthetic.Universe == 0 {
			cfg.Dataset.Synthetic.Universe = 1 << 16
		}
		if cfg.Dataset.Synthetic.Period == 0 {
			cfg.Dataset.Synthetic.Period = 63
		}
	case PressureData:
		cfg.Dataset = experiment.DatasetSpec{
			Kind:        experiment.Pressure,
			Skip:        c.Dataset.Skip,
			Pessimistic: c.Dataset.Pessimistic,
		}
	case TraceData:
		tr, err := data.NewTrace(c.Dataset.Series)
		if err != nil {
			return experiment.Config{}, err
		}
		if c.Dataset.UniverseLo != 0 || c.Dataset.UniverseHi != 0 {
			if err := tr.SetUniverse(c.Dataset.UniverseLo, c.Dataset.UniverseHi); err != nil {
				return experiment.Config{}, err
			}
		}
		cfg.Dataset = experiment.DatasetSpec{
			Kind:  experiment.UserTrace,
			Skip:  c.Dataset.Skip,
			Trace: tr,
		}
	default:
		return experiment.Config{}, fmt.Errorf("wsnq: unknown dataset kind %q", c.Dataset.Kind)
	}
	if err := cfg.Validate(); err != nil {
		return experiment.Config{}, err
	}
	return cfg, nil
}

// K returns the queried rank k = max(1, ⌊φ·|N|·ValuesPerNode⌋),
// clamped to the measurement count. It is computed by the same
// harness-side path every simulation uses, so K never disagrees with
// the rank a Run actually queries.
func (c Config) K() int {
	return experiment.Config{
		Nodes:         c.Nodes,
		ValuesPerNode: c.ValuesPerNode,
		Phi:           c.Phi,
	}.K()
}

// Metrics reports one algorithm's averaged results: the paper's two
// headline metrics (the hottest node's energy per round and the
// network lifetime in rounds), traffic, answer exactness, energy
// fairness, and the fault, repair and adaptation counters.
type Metrics = experiment.Metrics

// Option tunes how the engine executes a study. The zero set of
// options runs one worker per CPU with no progress reporting.
type Option func(*engineOptions)

type engineOptions struct {
	exp    experiment.Options
	health TraceCollector // health analyzer merged into the trace chain
}

// WithParallelism bounds the number of simulation runs executing
// concurrently. n <= 0 restores the default, runtime.GOMAXPROCS(0);
// n = 1 forces strictly sequential execution. Per-run seeds derive from
// Config.Seed alone and runs are aggregated in run order, so results
// are bit-identical at every setting.
func WithParallelism(n int) Option {
	return func(o *engineOptions) {
		if n < 0 {
			n = 0
		}
		o.exp.Parallelism = n
	}
}

// WithProgress reports engine progress: fn is called after each
// completed job (one algorithm over one run, and over one sweep cell
// for figures) with the number of finished and total jobs. Calls are
// serialized; done increases by one per call.
func WithProgress(fn func(done, total int)) Option {
	return func(o *engineOptions) { o.exp.Progress = fn }
}

// FaultPlan is a parsed fault-injection schedule: node crash/recover
// windows, Gilbert–Elliott bursty links, and sink-side partitions.
// Build one with ParseFaultPlan and attach it with WithFaults (or
// Simulation.SetFaults).
type FaultPlan struct {
	plan *fault.Plan
}

// ParseFaultPlan parses the fault DSL: semicolon-separated clauses
//
//	crash@R:nID          crash node ID at round R (forever)
//	crash@R1-R2:nID      crash at R1, recover at R2 (window [R1,R2))
//	burst(p=P,len=L):nID bursty loss on node ID's uplink (mean burst
//	                     length L rounds, stationary loss share P)
//	burst(p=P,len=L):link  the same on every link
//	partition@R1-R2      disconnect the sink's own radio for [R1,R2)
//
// Deterministic given a seed: the same plan replays the same faults in
// every run. See DESIGN.md §4f for the model.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	return &FaultPlan{plan: p}, nil
}

// String formats the plan back into the DSL it was parsed from
// (normalized; reparsing yields an equivalent plan).
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	return p.plan.String()
}

// WithFaults attaches a fault plan to the study: every simulation run
// injects the scheduled crashes, bursty links, and partitions, and the
// stack runs its recovery machinery — per-hop ACK/ARQ retransmissions
// (charged through the energy ledger), timeout-based dead-parent
// detection, routing-tree repair, and degraded answers while coverage
// is incomplete (Metrics.DegradedRounds, Repairs, RetriesPerRound).
// Fault timing derives from Config.Seed and the run index, so studies
// stay reproducible at any parallelism. A nil plan detaches.
func WithFaults(p *FaultPlan) Option {
	return func(o *engineOptions) {
		if p == nil {
			o.exp.Faults = nil
			return
		}
		o.exp.Faults = p.plan
	}
}

// TraceEvent is one flight-recorder record (see internal/trace for the
// event vocabulary: rounds, per-hop sends/receives/drops, fragmentation,
// energy debits, decisions, refinement requests).
type TraceEvent = trace.Event

// TraceCollector consumes a flight-recorder event stream. Ready-made
// collectors live in internal/trace (ring buffer, recorder, JSONL
// writer, metrics aggregator); any Collect(TraceEvent) implementation
// works.
type TraceCollector = trace.Collector

// NewTraceJSONL returns a collector that serializes every event to w as
// one JSON object per line — for Observer.Trace and
// Simulation.SetTrace. The writer is not flushed or closed by the
// collector.
func NewTraceJSONL(w io.Writer) TraceCollector {
	return trace.NewWriter(w)
}

// MultiCollector fans one flight-recorder stream out to several
// collectors in order, skipping nils. With zero or one effective
// collectors it returns nil or that collector unwrapped.
func MultiCollector(cs ...TraceCollector) TraceCollector {
	return trace.Multi(cs...)
}

// Telemetry is a live observability sink for studies: a metrics
// registry fed by the experiment engine (progress, ETA, per-job
// timings, aggregate result histograms) plus a network-health analyzer
// fed by the flight-recorder stream (per-node load distribution,
// hotspots, Jain's fairness index, lifetime projection, per-round cost
// percentiles). Attach it as Observer.Telemetry; read it at any time
// via Metrics and Health, or serve it over HTTP via Observer.Handler.
// All methods are safe for concurrent use.
type Telemetry struct {
	reg *telemetry.Registry
	an  *telemetry.Analyzer
}

// NewTelemetry returns an empty telemetry sink. Lifetime projections
// use the default per-node energy budget (DefaultEnergy().InitialBudget),
// which is the budget every public-API study runs with.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		reg: telemetry.NewRegistry(),
		an:  telemetry.NewAnalyzer(energy.DefaultParams().InitialBudget),
	}
}

// TelemetrySnapshot is a point-in-time copy of every registered metric
// (counters, gauges, histograms with p50/p95/p99); it marshals to
// deterministic JSON.
type TelemetrySnapshot = telemetry.Snapshot

// HealthReport is the analyzer's aggregated network-health view: load
// distributions, Jain's fairness index, hotspot nodes, the
// first-node-death lifetime projection, and per-round cost percentiles.
type HealthReport = telemetry.HealthReport

// Metrics returns a snapshot of the engine metrics registry.
func (t *Telemetry) Metrics() TelemetrySnapshot { return t.reg.Snapshot() }

// Health returns the current network-health report.
func (t *Telemetry) Health() HealthReport { return t.an.Report() }

func resolveOptions(opts []Option) experiment.Options {
	var o engineOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o.finish()
}

// finish resolves the collected options into engine options: the
// health analyzer (an event-stream consumer like any trace collector)
// merges into the trace chain last, so it observes every run whichever
// order the options were applied in.
func (o *engineOptions) finish() experiment.Options {
	if o.health != nil {
		prev := o.exp.Trace
		o.exp.Trace = func(j experiment.TraceJob) trace.Collector {
			if prev == nil {
				return o.health
			}
			return trace.Multi(prev(j), o.health)
		}
	}
	return o.exp
}

// RunContext executes the configured study for one algorithm and
// returns the metrics averaged over all runs. The runs fan out over the
// engine's worker pool; cancelling the context aborts the remaining
// ones and returns the context's error.
func RunContext(ctx context.Context, cfg Config, alg Algorithm, opts ...Option) (Metrics, error) {
	icfg, err := cfg.toInternal()
	if err != nil {
		return Metrics{}, err
	}
	f, err := factory(alg)
	if err != nil {
		return Metrics{}, err
	}
	m, err := experiment.RunNamedContext(ctx, icfg, string(alg), f, resolveOptions(opts))
	if err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// Run executes the configured study for one algorithm and returns the
// metrics averaged over all runs. It is a one-line wrapper over
// RunContext with a background context; use RunContext directly for
// cancellation.
func Run(cfg Config, alg Algorithm, opts ...Option) (Metrics, error) {
	return RunContext(context.Background(), cfg, alg, opts...)
}

// Result pairs one compared algorithm with its averaged metrics.
type Result struct {
	Algorithm Algorithm
	Metrics   Metrics
}

// CompareResults holds comparison results in the caller's algorithm
// order.
type CompareResults []Result

// Get returns the metrics of one algorithm, ok reporting whether it was
// part of the comparison.
func (rs CompareResults) Get(alg Algorithm) (Metrics, bool) {
	for _, r := range rs {
		if r.Algorithm == alg {
			return r.Metrics, true
		}
	}
	return Metrics{}, false
}

// Algorithms returns the compared algorithms in result order, so
// callers can iterate deterministically without ever touching a map:
//
//	for _, alg := range res.Algorithms() {
//		m, _ := res.Get(alg)
//		...
//	}
func (rs CompareResults) Algorithms() []Algorithm {
	out := make([]Algorithm, len(rs))
	for i, r := range rs {
		out[i] = r.Algorithm
	}
	return out
}

// CompareContext runs several algorithms on identical deployments and
// returns their metrics in the order of algs. The identical-deployment
// guarantee is structural, not seed-derived: the engine builds each
// run's topology, SOM placement, and measurement series exactly once
// and executes every algorithm against that shared, immutable
// deployment, so all compared algorithms see the same networks and the
// same data by construction. Runs and algorithms fan out over the
// worker pool; results are bit-identical at any parallelism.
func CompareContext(ctx context.Context, cfg Config, algs []Algorithm, opts ...Option) (CompareResults, error) {
	icfg, err := cfg.toInternal()
	if err != nil {
		return nil, err
	}
	named := make([]experiment.NamedFactory, len(algs))
	for i, a := range algs {
		f, err := factory(a)
		if err != nil {
			return nil, err
		}
		named[i] = experiment.NamedFactory{Name: string(a), New: f}
	}
	ms, err := experiment.CompareContext(ctx, icfg, named, resolveOptions(opts))
	if err != nil {
		return nil, err
	}
	out := make(CompareResults, len(algs))
	for i, a := range algs {
		out[i] = Result{Algorithm: a, Metrics: ms[i]}
	}
	return out, nil
}

// ReadTraceCSV loads measurement series for TraceData from CSV: one
// comma-separated integer series per line, '#' comments and blank lines
// ignored.
func ReadTraceCSV(r io.Reader) ([][]int, error) {
	tr, err := data.ReadTracesCSV(r)
	if err != nil {
		return nil, err
	}
	out := make([][]int, tr.Nodes())
	for i := range out {
		row := make([]int, tr.Rounds())
		for j := range row {
			row[j] = tr.Value(i, j)
		}
		out[i] = row
	}
	return out, nil
}

// DefaultSizes exposes the link-layer framing defaults (16-byte header,
// 128-byte payload, two-byte values) used by all simulations.
func DefaultSizes() msg.Sizes { return msg.DefaultSizes() }

// DefaultEnergy exposes the radio energy model defaults (50 nJ/bit
// send/receive base cost, 10 pJ/bit/m², 30 mJ budget).
func DefaultEnergy() energy.Params { return energy.DefaultParams() }
