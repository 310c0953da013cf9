package experiment

import (
	"fmt"
	"math/rand"

	"wsnq/internal/data"
	"wsnq/internal/sim"
	"wsnq/internal/som"
	"wsnq/internal/wsn"
)

// Deployment is the immutable part of one simulation run: the routing
// tree (placement, SOM training, virtual-children expansion already
// applied) and the measurement source. Both are read-only after
// construction — sim.Runtime never mutates them and data.Source values
// are pure functions of (node, round) — so a single Deployment can
// safely back any number of concurrent Runtimes. This is what lets the
// engine build a (config, run) deployment once and run every compared
// algorithm against it.
type Deployment struct {
	top  *wsn.Topology
	src  data.Source
	seed int64 // loss-sampling seed handed to each runtime
}

// Topology returns the shared routing tree. Callers must treat it as
// read-only.
func (d *Deployment) Topology() *wsn.Topology { return d.top }

// Source returns the shared measurement source.
func (d *Deployment) Source() data.Source { return d.src }

// NewRuntime assembles a fresh runtime (own ledger, statistics, and
// loss stream) on top of the shared topology and measurements. Runtimes
// created from the same Deployment are fully independent of each other.
func (d *Deployment) NewRuntime(cfg Config) (*sim.Runtime, error) {
	return sim.New(sim.Config{
		Topology: d.top, Source: d.src,
		Sizes: cfg.Sizes, Energy: cfg.Energy,
		LossProb: cfg.LossProb, Seed: d.seed,
		ChargeByDistance: cfg.ChargeByDistance,
	})
}

// BuildRuntime assembles the deployment of one run and wraps it in a
// runtime. It is shorthand for BuildDeployment followed by NewRuntime;
// harnesses that run several algorithms on the same run should call
// those two steps themselves and reuse the Deployment.
func BuildRuntime(cfg Config, run int) (*sim.Runtime, error) {
	dep, err := BuildDeployment(cfg, run)
	if err != nil {
		return nil, err
	}
	return dep.NewRuntime(cfg)
}

// runSeed is run r's base seed: a distinct prime stride per run.
func runSeed(cfg Config, run int) int64 { return cfg.Seed + int64(run)*104729 }

// FaultSeed is run r's fault-injector seed: the run seed, displaced so
// fault timing and placement never correlate with the deployment. Every
// driver of run r — the engine, Simulation, a served query — uses it.
func FaultSeed(cfg Config, run int) int64 { return runSeed(cfg, run) ^ 0xFA07 }

// BuildDeployment assembles the topology and measurement source of one
// run. Run r derives its seeds from the base seed so runs differ but
// remain reproducible; the result depends only on (cfg, run), never on
// which or how many algorithms later execute against it.
func BuildDeployment(cfg Config, run int) (*Deployment, error) {
	seed := runSeed(cfg, run)
	buildTree := wsn.BuildTree
	if cfg.Tree == TreeBFS {
		buildTree = wsn.BuildTreeBFS
	}
	switch cfg.Dataset.Kind {
	case Synthetic:
		top, err := wsn.BuildConnectedTree(cfg.Nodes, cfg.Area, cfg.RadioRange,
			rand.New(rand.NewSource(seed)), 50, buildTree)
		if err != nil {
			return nil, err
		}
		if top, err = expandVirtual(top, cfg); err != nil {
			return nil, err
		}
		scfg := cfg.Dataset.Synthetic
		scfg.Seed = seed
		// Virtual children share their host's position and therefore
		// its spatially correlated base level; per-node jitter and
		// noise still give each measurement its own value.
		src, err := data.NewSynthetic(scfg, top.Pos, cfg.Area)
		if err != nil {
			return nil, err
		}
		return &Deployment{top: top, src: src, seed: seed ^ 0x10551}, nil

	case Pressure:
		// The trace and SOM placement are fixed across runs (node
		// positions do not move, §5.1); only the root selection varies.
		spec := cfg.Dataset
		nodes := spec.PressureNodes
		if nodes == 0 {
			nodes = cfg.Nodes
		}
		perNode := cfg.ValuesPerNode
		if perNode < 1 {
			perNode = 1
		}
		skip := spec.Skip
		if skip < 1 {
			skip = 1
		}
		// The raw trace length must not depend on the skip factor:
		// every sampling-rate variant of Figure 10 subsamples the SAME
		// dataset, so the generator's random stream stays aligned.
		rawRounds := spec.PressureRounds
		if rawRounds == 0 {
			const maxSkip = 16 // largest skip in the Figure 10 sweep
			need := cfg.Rounds*skip + skip
			rawRounds = cfg.Rounds*maxSkip + maxSkip
			if need > rawRounds {
				rawRounds = need
			}
		}
		// With multiple measurements per node, the trace holds one
		// series per measurement; the first `nodes` series belong to
		// the real nodes (and drive the SOM placement), the rest to
		// their artificial children, in ExpandVirtual's id order.
		tr, err := data.NewPressureTrace(data.PressureConfig{
			Nodes: nodes * perNode, Rounds: rawRounds, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if spec.Pessimistic {
			if err := tr.SetUniverse(data.PessimisticLoHPa, data.PessimisticHiHPa); err != nil {
				return nil, err
			}
		}
		if skip > 1 {
			if tr, err = tr.Skip(skip); err != nil {
				return nil, err
			}
		}
		return traceDeployment(cfg, seed, nodes, tr, buildTree)

	case UserTrace:
		tr := cfg.Dataset.Trace
		if tr == nil {
			return nil, fmt.Errorf("experiment: UserTrace dataset without a trace")
		}
		perNode := cfg.ValuesPerNode
		if perNode < 1 {
			perNode = 1
		}
		if tr.Nodes() != cfg.Nodes*perNode {
			return nil, fmt.Errorf("experiment: trace has %d series, config needs %d×%d", tr.Nodes(), cfg.Nodes, perNode)
		}
		if skip := cfg.Dataset.Skip; skip > 1 {
			var err error
			if tr, err = tr.Skip(skip); err != nil {
				return nil, err
			}
		}
		return traceDeployment(cfg, seed, cfg.Nodes, tr, buildTree)

	default:
		return nil, fmt.Errorf("experiment: unknown dataset kind %d", cfg.Dataset.Kind)
	}
}

// traceDeployment places trace-driven nodes with a SOM over the first
// measurements of the `nodes` real nodes, builds a connected routing
// tree rooted at a randomly selected node position, applies the
// virtual-children expansion, and assembles the deployment.
func traceDeployment(cfg Config, seed int64, nodes int, tr *data.Trace, buildTree func([]wsn.Point, wsn.Point, float64) (*wsn.Topology, error)) (*Deployment, error) {
	rootRng := rand.New(rand.NewSource(seed ^ 0x5EED))
	// SOM placements concentrate nodes along the active lattice band
	// and can leave disconnected pockets; widen the placement jitter
	// progressively (keeping best-matching units, hence the spatial
	// correlation) until the disc graph is connected. The radio range —
	// and with it the energy model — stays untouched.
	realFirst := tr.FirstValues()[:nodes]
	somMap, err := som.Train(realFirst, som.Config{}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	var top *wsn.Topology
	placed := false
	for _, spread := range []float64{1, 1.5, 2, 3, 4, 6} {
		for attempt := 0; attempt < 5; attempt++ {
			placeRng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*7919))
			pos := somMap.PlaceSpread(realFirst, cfg.Area, spread, placeRng)
			top, err = buildTree(pos, pos[rootRng.Intn(len(pos))], cfg.RadioRange)
			if err == nil {
				placed = true
				break
			}
		}
		if placed {
			break
		}
	}
	if !placed {
		return nil, fmt.Errorf("experiment: SOM placement not connected at ρ=%v: %w", cfg.RadioRange, err)
	}
	if top, err = expandVirtual(top, cfg); err != nil {
		return nil, err
	}
	return &Deployment{top: top, src: tr, seed: seed ^ 0x10551}, nil
}
