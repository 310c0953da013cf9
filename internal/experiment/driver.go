package experiment

import (
	"fmt"

	"wsnq/internal/adapt"
	"wsnq/internal/fault"
	"wsnq/internal/prof"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// Rig is what NewDriver attaches to a fresh runtime. Zero fields attach
// nothing.
type Rig struct {
	Trace     trace.Collector
	Prof      *prof.Handle
	Faults    *fault.Plan
	ARQ       *sim.ARQConfig // nil selects sim.DefaultARQ
	FaultSeed int64          // injector seed; see FaultSeed
	Ctl       *adapt.Controller
}

// Driver runs one protocol instance on one runtime round by round. It
// is the single round loop behind the batch engine, Simulation, and
// the query service, so every driver derives the same answers and
// decisions for the same seed.
//
// Each round, after the reliable initialization of round 0, is
// AdvanceRound, then the controller's queued actions (decided on the
// previous round's data), then either a re-initialization or a Step,
// then the traced decision, whose rank error Step returns in the
// round's Verdict: the one rank-error scan of the round, which every
// driver reads instead of rescanning. The reinit policy:
//
//   - a pending repair (Runtime.ConsumeReinit) replays the
//     initialization instead of stepping;
//   - a Step error replays the initialization only when the runtime is
//     lossy or has faults attached — loss and faults are the only
//     things that may desynchronize a protocol;
//   - any other Step error, and a failed initialization, is returned.
//
// Every initialization runs over reliable links: iid loss and
// link-level faults (bursts, partitions — not crashes) are suspended.
type Driver struct {
	rt     *sim.Runtime
	alg    protocol.Algorithm
	k      int
	ctl    *adapt.Controller
	round  int
	inited bool
}

// NewDriver attaches rig to rt in the one assembly order: trace, then
// profiling, then faults (after the trace, so crash events at attach
// time are captured), then the controller's binding to alg.
func NewDriver(rt *sim.Runtime, alg protocol.Algorithm, k int, rig Rig) (*Driver, error) {
	if rig.Trace != nil {
		rt.SetTrace(rig.Trace)
	}
	if rig.Prof != nil {
		rt.SetProf(rig.Prof)
	}
	if rig.Faults != nil {
		arq := sim.DefaultARQ()
		if rig.ARQ != nil {
			arq = *rig.ARQ
		}
		if err := rt.SetFaults(rig.Faults, rig.FaultSeed, arq); err != nil {
			return nil, err
		}
	}
	d := &Driver{rt: rt, alg: alg, k: k}
	d.SetController(rig.Ctl)
	return d, nil
}

// SetController binds ctl to the driver's protocol and runtime; nil
// detaches.
func (d *Driver) SetController(ctl *adapt.Controller) {
	if ctl != nil {
		ctl.Bind(adapt.BindRuntime(d.alg, d.rt))
	}
	d.ctl = ctl
}

// Runtime returns the driven runtime.
func (d *Driver) Runtime() *sim.Runtime { return d.rt }

// Algorithm returns the driven protocol instance.
func (d *Driver) Algorithm() protocol.Algorithm { return d.alg }

// K returns the queried rank.
func (d *Driver) K() int { return d.k }

// Round returns the current round number (0 is the initialization
// round).
func (d *Driver) Round() int { return d.round }

// Verdict is one round's root decision: the answer for the queried
// rank K, its rank error against the oracle data (0 = exact), and
// whether the round replayed the initialization (always false for
// round 0).
type Verdict struct {
	Round   int
	Answer  int
	K       int
	RankErr int
	Reinit  bool
}

// Step executes the next round — the first call initializes — and
// returns its verdict.
func (d *Driver) Step() (Verdict, error) {
	var (
		q      int
		reinit bool
		err    error
	)
	if !d.inited {
		d.inited = true
		if q, err = d.reliableInit(); err != nil {
			return Verdict{}, fmt.Errorf("%s init: %w", d.alg.Name(), err)
		}
	} else {
		d.rt.AdvanceRound()
		d.round++
		if d.ctl != nil {
			// AdvanceRound flushed the previous round's point through the
			// controller's sink; a proactive reroot sets the repair flag
			// consumed just below.
			d.ctl.Apply()
		}
		if d.rt.ConsumeReinit() {
			reinit = true
			if q, err = d.reliableInit(); err != nil {
				return Verdict{}, fmt.Errorf("%s repair reinit round %d: %w", d.alg.Name(), d.round, err)
			}
		} else if q, err = d.alg.Step(d.rt); err != nil {
			if d.rt.LossProb() == 0 && !d.rt.FaultsAttached() {
				return Verdict{}, fmt.Errorf("%s round %d: %w", d.alg.Name(), d.round, err)
			}
			reinit = true
			if q, err = d.reliableInit(); err != nil {
				return Verdict{}, fmt.Errorf("%s reinit round %d: %w", d.alg.Name(), d.round, err)
			}
		}
	}
	return Verdict{Round: d.round, Answer: q, K: d.k, RankErr: d.rt.TraceDecision(d.k, q), Reinit: reinit}, nil
}

// reliableInit runs the protocol's initialization with iid loss and
// link-level faults suspended.
func (d *Driver) reliableInit() (int, error) {
	p := d.rt.LossProb()
	if p > 0 {
		_ = d.rt.SetLossProb(0)
	}
	d.rt.SetFaultReliable(true)
	q, err := d.alg.Init(d.rt, d.k)
	d.rt.SetFaultReliable(false)
	if p > 0 {
		_ = d.rt.SetLossProb(p)
	}
	return q, err
}
