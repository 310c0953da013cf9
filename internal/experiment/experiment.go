// Package experiment is the evaluation harness reproducing §5: it
// assembles deployments (synthetic or air-pressure, §5.1.1–§5.1.3),
// runs the continuous algorithms for the configured number of rounds
// and simulation runs, and reports the paper's two headline metrics —
// average maximum per-node energy consumption per round and network
// lifetime — plus traffic statistics and, under loss injection, rank
// error.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// DatasetKind selects the measurement source.
type DatasetKind int

// The evaluation datasets: the paper's two (§5.1) plus user-supplied
// traces.
const (
	Synthetic DatasetKind = iota
	Pressure
	UserTrace
)

// DatasetSpec configures the measurement source of a run.
type DatasetSpec struct {
	Kind DatasetKind

	// Synthetic parameters (§5.1.2, §5.1.7). Seed fields are ignored;
	// the harness derives per-run seeds.
	Synthetic data.SyntheticConfig

	// Pressure parameters (§5.1.3, §5.2.5).
	PressureNodes  int  // trace node count (default Config.Nodes)
	PressureRounds int  // raw samples before skipping (default 4*Rounds*Skip)
	Skip           int  // keep every Skip-th sample (sampling-rate sweep)
	Pessimistic    bool // universe [856, 1086] hPa instead of observed

	// Trace is a user-supplied measurement set (UserTrace kind): one
	// series per measurement, placed like the pressure dataset (SOM on
	// first values). Config.Nodes and ValuesPerNode must match its
	// series count. Skip applies.
	Trace *data.Trace
}

// TreeKind selects the routing-tree construction.
type TreeKind int

// The routing trees under study: the paper's Euclidean shortest-path
// tree (§5.1.1) and a hop-count (BFS) alternative for the abl-tree
// study.
const (
	TreeSPT TreeKind = iota
	TreeBFS
)

// Config assembles one experiment cell (§5.1.7 defaults).
type Config struct {
	Nodes      int      // |N|
	Area       float64  // region side in meters
	RadioRange float64  // ρ in meters
	Tree       TreeKind // routing tree construction (default SPT, §5.1.1)
	// ValuesPerNode models nodes taking several measurements per round
	// via the paper's artificial-children reduction (§2). Default 1.
	ValuesPerNode int
	Phi           float64 // quantile fraction φ; k = max(1, ⌊φ·measurements⌋)
	Rounds        int     // measured rounds per run (init round included)
	Runs          int     // simulation runs to average over
	Seed          int64   // base seed; run r derives from it

	Dataset DatasetSpec
	Sizes   msg.Sizes
	Energy  energy.Params

	// LossProb injects per-hop convergecast loss (the §6 future-work
	// study); algorithms may then return inexact results, measured as
	// rank error.
	LossProb float64

	// ChargeByDistance charges transmissions by actual link length
	// instead of the nominal radio range (the abl-energy study).
	ChargeByDistance bool
}

// Default returns the paper's default cell: 500 nodes in 200×200 m,
// ρ = 35 m, median query, 250 rounds × 20 runs, synthetic data with
// τ = 63 rounds and ψ = 10 %.
func Default() Config {
	return Config{
		Nodes:      500,
		Area:       200,
		RadioRange: 35,
		Phi:        0.5,
		Rounds:     250,
		Runs:       20,
		Seed:       1,
		Dataset: DatasetSpec{
			Kind: Synthetic,
			Synthetic: data.SyntheticConfig{
				Universe: 1 << 16,
				Period:   63,
				NoisePct: 10,
			},
		},
		Sizes:  msg.DefaultSizes(),
		Energy: energy.DefaultParams(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("experiment: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Area <= 0 || c.RadioRange <= 0 {
		return fmt.Errorf("experiment: area %v and radio range %v must be positive", c.Area, c.RadioRange)
	}
	if c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("experiment: phi %v out of (0,1]", c.Phi)
	}
	if c.Rounds < 1 || c.Runs < 1 {
		return fmt.Errorf("experiment: rounds %d and runs %d must be >= 1", c.Rounds, c.Runs)
	}
	if err := c.Sizes.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("experiment: loss probability %v out of [0,1)", c.LossProb)
	}
	return nil
}

// Measurements returns the total number of values per round,
// |N|·ValuesPerNode.
func (c Config) Measurements() int {
	m := c.ValuesPerNode
	if m < 1 {
		m = 1
	}
	return c.Nodes * m
}

// K returns the queried rank over all measurements.
func (c Config) K() int {
	n := c.Measurements()
	k := int(c.Phi * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Factory builds a fresh algorithm instance for one run.
type Factory func() protocol.Algorithm

// Metrics aggregates one algorithm's results over all runs of a cell.
type Metrics struct {
	// MaxNodeEnergyPerRound is the paper's first headline metric:
	// consumption of the hottest node divided by rounds, averaged over
	// runs, in joules.
	MaxNodeEnergyPerRound float64
	// LifetimeRounds is the second headline metric: rounds until the
	// first node exhausts its budget, extrapolated from the hottest
	// node's measured consumption rate when no node dies within the
	// measured window.
	LifetimeRounds float64

	TotalEnergy    float64 // network-wide joules per run
	ValuesPerRound float64 // transmitted measurements per round (per hop)
	FramesPerRound float64 // link-layer frames per round
	BitsPerRound   float64 // bits on the air per round

	// Energy-fairness statistics over the per-node consumption
	// distribution at the end of a run: the Gini coefficient (0 =
	// perfectly even drain, →1 = one node carries everything) and the
	// hotspot-to-median ratio. Uneven drain shortens lifetime even when
	// the total is low.
	EnergyGini           float64
	HotspotToMedianRatio float64

	// PhaseBitsPerRound attributes the per-round traffic to protocol
	// stages (sim.Phase* labels) — the cost anatomy.
	PhaseBitsPerRound map[string]float64

	// Exactness bookkeeping (interesting under loss).
	ExactRounds   int     // rounds whose answer matched the oracle
	Rounds        int     // total measured rounds
	MeanRankError float64 // mean |rank(answer) − k|
	Reinits       int     // error-triggered re-initializations

	// Robustness bookkeeping (zero unless Options.Faults attaches a
	// fault plan): rounds answered in degraded mode (incomplete sensor
	// coverage), orphaned subtrees re-parented by tree repair, and ARQ
	// retransmissions per round. Counts are summed over runs, the rate
	// is averaged.
	DegradedRounds  int
	Repairs         int
	RetriesPerRound float64

	// Adapts counts the closed-loop controller actions applied over all
	// runs (zero unless Options.Adapt attaches policies).
	Adapts int
}

// Run executes the cell for one algorithm and averages over cfg.Runs.
// It delegates to the parallel engine (see engine.go); pass
// Options{Parallelism: 1} to RunContext for strictly sequential
// execution — the results are bit-identical either way.
func Run(cfg Config, factory Factory) (Metrics, error) {
	return RunContext(context.Background(), cfg, factory, Options{})
}

// aggregate averages per-run metrics in run order. Summation order is
// fixed so the result is bit-identical no matter how the runs were
// scheduled.
func aggregate(runs []Metrics) Metrics {
	var agg Metrics
	for _, m := range runs {
		agg.MaxNodeEnergyPerRound += m.MaxNodeEnergyPerRound
		agg.LifetimeRounds += m.LifetimeRounds
		agg.TotalEnergy += m.TotalEnergy
		agg.ValuesPerRound += m.ValuesPerRound
		agg.FramesPerRound += m.FramesPerRound
		agg.BitsPerRound += m.BitsPerRound
		agg.ExactRounds += m.ExactRounds
		agg.Rounds += m.Rounds
		agg.MeanRankError += m.MeanRankError
		agg.Reinits += m.Reinits
		agg.DegradedRounds += m.DegradedRounds
		agg.Repairs += m.Repairs
		agg.Adapts += m.Adapts
		agg.RetriesPerRound += m.RetriesPerRound
		agg.EnergyGini += m.EnergyGini
		agg.HotspotToMedianRatio += m.HotspotToMedianRatio
		for ph, bits := range m.PhaseBitsPerRound {
			if agg.PhaseBitsPerRound == nil {
				agg.PhaseBitsPerRound = make(map[string]float64)
			}
			agg.PhaseBitsPerRound[ph] += bits
		}
	}
	f := float64(len(runs))
	agg.MaxNodeEnergyPerRound /= f
	agg.LifetimeRounds /= f
	agg.TotalEnergy /= f
	agg.ValuesPerRound /= f
	agg.FramesPerRound /= f
	agg.BitsPerRound /= f
	agg.MeanRankError /= f
	agg.RetriesPerRound /= f
	agg.EnergyGini /= f
	agg.HotspotToMedianRatio /= f
	for ph := range agg.PhaseBitsPerRound {
		agg.PhaseBitsPerRound[ph] /= f
	}
	return agg
}

// runOn executes one simulation run of alg on a (possibly shared)
// deployment through a Driver. It builds its own runtime, so concurrent
// calls with the same deployment are safe. mkTrace, when non-nil, is
// handed the fresh runtime and the driver's last verdict, and may
// return a flight-recorder collector to attach (nil to run untraced) —
// late binding that lets collectors sample the runtime's live counters
// (series.Store.IngestTotals) and pair each point with the verdict of
// the round it closes. rig carries the rest of the run's attachments:
// profiling, the fault plan with this run's injector seed, and the
// closed-loop controller, which already observes the point stream
// through the trace collector.
func runOn(cfg Config, dep *Deployment, alg protocol.Algorithm, mkTrace func(*sim.Runtime, *Verdict) trace.Collector, rig Rig) (Metrics, error) {
	rt, err := dep.NewRuntime(cfg)
	if err != nil {
		return Metrics{}, err
	}
	// v is the driver's last verdict. A round's point is cut in the next
	// Step's AdvanceRound (or in EndTrace), before the next decision, so
	// a point sink reading v sees the verdict of the round it closes.
	var v Verdict
	if mkTrace != nil {
		rig.Trace = mkTrace(rt, &v)
	}
	d, err := NewDriver(rt, alg, cfg.K(), rig)
	if err != nil {
		return Metrics{}, err
	}

	var m Metrics
	var errSum float64
	died := 0 // round at which the first node died (0 = survived)
	for t := 0; t < cfg.Rounds; t++ {
		if v, err = d.Step(); err != nil {
			return Metrics{}, err
		}
		if v.Reinit {
			m.Reinits++
		}
		m.Rounds++
		if v.RankErr == 0 {
			m.ExactRounds++
		}
		errSum += float64(v.RankErr)
		if rt.CoverageDeficit() > 0 {
			m.DegradedRounds++
		}
		if died == 0 && rt.Ledger().Exhausted() {
			died = m.Rounds
		}
	}
	rt.EndTrace()

	rounds := float64(m.Rounds)
	_, hottest := rt.Ledger().MaxSpent()
	m.MaxNodeEnergyPerRound = hottest / rounds
	m.TotalEnergy = rt.Ledger().TotalSpent()
	m.EnergyGini, m.HotspotToMedianRatio = fairness(rt.Ledger().Snapshot())
	st := rt.Stats()
	m.PhaseBitsPerRound = make(map[string]float64)
	for i, ps := range st.PerPhase {
		// A phase gets a key iff it booked a transmission; Frames alone
		// misses zero-bit payloads, which travel in no frame.
		if ps.Payloads > 0 || ps.Frames > 0 {
			m.PhaseBitsPerRound[sim.PhaseName(i)] = float64(ps.Bits) / rounds
		}
	}
	m.ValuesPerRound = float64(st.ValuesSent) / rounds
	m.FramesPerRound = float64(st.FramesSent) / rounds
	m.BitsPerRound = float64(st.BitsSent) / rounds
	m.MeanRankError = errSum / rounds
	m.Repairs = rt.Repairs()
	m.RetriesPerRound = float64(st.Retries) / rounds
	m.Adapts = st.Adapts

	switch {
	case died > 0:
		m.LifetimeRounds = float64(died)
	case hottest <= 0:
		m.LifetimeRounds = float64(cfg.Rounds)
	default:
		// Extrapolate from the hottest node's measured rate.
		m.LifetimeRounds = cfg.Energy.InitialBudget / (hottest / rounds)
	}
	return m, nil
}

// fairness computes the Gini coefficient and the hotspot-to-median
// ratio of a per-node consumption distribution.
func fairness(spent []float64) (gini, hotspotToMedian float64) {
	if len(spent) == 0 {
		return 0, 0
	}
	sort.Float64s(spent)
	n := float64(len(spent))
	var sum, weighted float64
	for i, e := range spent {
		sum += e
		weighted += float64(i+1) * e
	}
	if sum > 0 {
		gini = (2*weighted - (n+1)*sum) / (n * sum)
	}
	median := spent[len(spent)/2]
	hotspot := spent[len(spent)-1]
	if median > 0 {
		hotspotToMedian = hotspot / median
	}
	return gini, hotspotToMedian
}

// expandVirtual applies the artificial-children reduction when the
// configuration asks for multiple measurements per node.
func expandVirtual(top *wsn.Topology, cfg Config) (*wsn.Topology, error) {
	if cfg.ValuesPerNode <= 1 {
		return top, nil
	}
	return wsn.ExpandVirtual(top, cfg.ValuesPerNode)
}
