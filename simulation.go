package wsnq

import (
	"fmt"

	"wsnq/internal/adapt"
	"wsnq/internal/core"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// Simulation drives a single deployment round by round, for live
// monitoring, visualization, or custom metrics. It wraps one run of the
// configured study (Runs is ignored; use Run for averaged studies).
type Simulation struct {
	drv    *experiment.Driver
	rt     *sim.Runtime
	seed   int64
	budget float64

	userTrace TraceCollector  // collector attached via SetTrace
	adaptTap  trace.Collector // private point derivation for the controller
	ctl       *adapt.Controller
}

// RoundResult reports one simulation round.
type RoundResult struct {
	Round    int // round number, starting at 0 (the initialization round)
	Quantile int // the algorithm's answer
	Oracle   int // the true rank-k value (centrally computed, free)

	// Cumulative network statistics up to and including this round.
	TotalEnergy   float64 // joules across all nodes
	HotspotEnergy float64 // joules consumed by the hottest node
	BitsSent      int
	ValuesSent    int
	FramesSent    int
	Convergecasts int // convergecast phases executed
	Broadcasts    int // broadcast phases executed

	// Recovery status: whether this round's answer was computed with
	// incomplete sensor coverage, the rounds since the last fully
	// covered answer, the alive-but-orphaned nodes awaiting tree repair
	// (these three are zero without SetFaults), and whether the round
	// replayed the protocol's initialization after a repair or a
	// desynchronization under loss or faults.
	Degraded  bool
	Staleness int
	Orphans   int
	Reinit    bool

	// Adapts counts the closed-loop controller actions applied so far
	// (cumulative; zero without SetController).
	Adapts int
}

// NewSimulation assembles one deployment (run index 0 of cfg) with the
// given algorithm. Step must be called to execute rounds.
func NewSimulation(cfg Config, alg Algorithm) (*Simulation, error) {
	icfg, err := cfg.toInternal()
	if err != nil {
		return nil, err
	}
	return newSimulation(icfg, alg, nil, nil)
}

// newSimulation is the one constructor path: run 0's runtime of icfg
// driving alg, with plan (nil for none) attached under arq (nil for
// sim.DefaultARQ) and run 0's fault seed.
func newSimulation(icfg experiment.Config, alg Algorithm, plan *fault.Plan, arq *sim.ARQConfig) (*Simulation, error) {
	f, err := factory(alg)
	if err != nil {
		return nil, err
	}
	rt, err := experiment.BuildRuntime(icfg, 0)
	if err != nil {
		return nil, err
	}
	seed := experiment.FaultSeed(icfg, 0)
	drv, err := experiment.NewDriver(rt, f(), icfg.K(), experiment.Rig{Faults: plan, ARQ: arq, FaultSeed: seed})
	if err != nil {
		return nil, err
	}
	return &Simulation{drv: drv, rt: rt, seed: seed, budget: icfg.Energy.InitialBudget}, nil
}

// SetFaults attaches a fault plan with the default ARQ recovery
// configuration (sim.DefaultARQ: acknowledged hops, 3 retransmissions,
// dead-parent detection after 2 silent rounds). Subsequent Steps
// inject the scheduled faults and drive the recovery contract: after a
// tree repair or a protocol desynchronization, the next Step replays
// initialization over temporarily reliable links (RoundResult.Reinit
// reports it). Call before the first Step; attaching twice is an
// error.
func (s *Simulation) SetFaults(p *FaultPlan) error {
	if p == nil {
		return fmt.Errorf("wsnq: nil fault plan")
	}
	return s.rt.SetFaults(p.plan, s.seed, sim.DefaultARQ())
}

// SetTrace attaches a flight recorder to the simulation (nil detaches):
// c receives every subsequent event — rounds, per-hop traffic, energy
// debits, and the decision recorded by each Step.
func (s *Simulation) SetTrace(c TraceCollector) {
	s.userTrace = c
	s.syncTrace()
}

// syncTrace composes the user's collector with the controller's private
// point tap into one chain on the runtime.
func (s *Simulation) syncTrace() {
	s.rt.SetTrace(trace.Multi(s.userTrace, s.adaptTap))
}

// SetController attaches a closed-loop adaptation controller to the
// simulation: each Step first applies the actions the policies fired on
// the previous round's data — pinning the adaptive hybrid, rescaling
// IQ's Ξ, proactively re-rooting the tree — then runs the protocol.
// The controller evaluates its policies on a private per-round point
// stream (it never touches a collector attached with SetTrace), so the
// decision sequence (AdaptDecisions) is a pure function of the
// simulation. Call before the first Step; a nil c (or one with no
// policies) detaches. Reroot policies additionally need SetFaults,
// since tree repair lives in the fault layer.
func (s *Simulation) SetController(c *Controller) error {
	if c == nil || len(c.policies) == 0 {
		s.ctl, s.adaptTap = nil, nil
		s.drv.SetController(nil)
		s.syncTrace()
		return nil
	}
	ctl, err := adapt.NewController(s.budget, c.policies...)
	if err != nil {
		return err
	}
	s.drv.SetController(ctl)
	s.ctl = ctl
	s.adaptTap = series.New(1).IngestTotals(s.AlgorithmName(), experiment.SeriesSampler(s.rt), ctl.Observe)
	s.syncTrace()
	return nil
}

// AdaptDecisions returns the controller's decision log so far (nil
// without SetController), oldest first.
func (s *Simulation) AdaptDecisions() []AdaptDecision {
	if s.ctl == nil {
		return nil
	}
	return s.ctl.Decisions()
}

// FinishTrace closes the event stream after the last Step: it emits
// the final round's end-of-round event, which otherwise only fires
// when the next round begins. Call it once when done stepping so
// per-round collectors (series ingestion via (*Series).Collector, the
// invariant oracle) see the closing round; a no-op without a collector.
func (s *Simulation) FinishTrace() { s.rt.EndTrace() }

// K returns the queried rank.
func (s *Simulation) K() int { return s.drv.K() }

// N returns the number of sensor nodes.
func (s *Simulation) N() int { return s.rt.N() }

// Universe returns the assumed integer measurement range.
func (s *Simulation) Universe() (lo, hi int) { return s.rt.Universe() }

// AlgorithmName returns the running algorithm's display name.
func (s *Simulation) AlgorithmName() string { return s.drv.Algorithm().Name() }

// Step executes the next round (the first call runs initialization) and
// reports the result. It follows the recovery contract of every driver
// (experiment.Driver): after a tree repair, or a desynchronization
// under loss or faults, the round replays initialization over reliable
// links and RoundResult.Reinit reports it.
func (s *Simulation) Step() (RoundResult, error) {
	v, err := s.drv.Step()
	if err != nil {
		return RoundResult{}, err
	}
	st := s.rt.Stats()
	_, hotspot := s.rt.Ledger().MaxSpent()
	return RoundResult{
		Round:         v.Round,
		Quantile:      v.Answer,
		Oracle:        s.rt.Oracle(v.K),
		TotalEnergy:   s.rt.Ledger().TotalSpent(),
		HotspotEnergy: hotspot,
		BitsSent:      st.BitsSent,
		ValuesSent:    st.ValuesSent,
		FramesSent:    st.FramesSent,
		Convergecasts: st.Convergecasts,
		Broadcasts:    st.Broadcasts,
		Degraded:      s.rt.CoverageDeficit() > 0,
		Staleness:     s.rt.Staleness(),
		Orphans:       s.rt.Orphans(),
		Reinit:        v.Reinit,
		Adapts:        st.Adapts,
	}, nil
}

// NodeEnergy returns the cumulative consumption of one node in joules.
func (s *Simulation) NodeEnergy(node int) float64 { return s.rt.Ledger().Spent(node) }

// Exhausted reports whether some node has consumed its entire budget.
func (s *Simulation) Exhausted() bool { return s.rt.Ledger().Exhausted() }

// Readings returns the current round's measurements (centrally read,
// free — intended for visualization).
func (s *Simulation) Readings() []int {
	out := make([]int, s.rt.N())
	for i := range out {
		out[i] = s.rt.Reading(i)
	}
	return out
}

// IQState exposes IQ's adaptive interval for visualization (Figure 4):
// the filter v^{t-1} and the offsets ξ_l, ξ_r. ok is false when the
// simulation does not run IQ.
func (s *Simulation) IQState() (filter, xiL, xiR int, ok bool) {
	iq, isIQ := s.drv.Algorithm().(*core.IQ)
	if !isIQ {
		return 0, 0, 0, false
	}
	xiL, xiR = iq.Xi()
	return iq.Filter(), xiL, xiR, true
}
