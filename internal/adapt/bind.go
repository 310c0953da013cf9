package adapt

import (
	"wsnq/internal/core"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// switchIndex gives the stable integer the trace records for a switch
// target (the trace.KindAdapt Value column).
func switchIndex(target string) int {
	switch target {
	case "IQ":
		return 0
	case "HBC":
		return 1
	case "POS":
		return 2
	}
	return -1
}

// runtimeActuator applies fired policies to a live simulation: Switch
// pins the §4.2 adaptive hybrid, Widen/Narrow rescale IQ's Ξ interval,
// Reroot invokes the proactive tree repair. Every applied action emits
// a trace.KindAdapt event (sim.Runtime.TraceAdapt) so the decision
// flows into series, alerts, and the oracle like any protocol event.
type runtimeActuator struct {
	rt  *sim.Runtime
	alg protocol.Algorithm
}

// BindRuntime builds the standard actuator over a protocol instance and
// its runtime. Actions the algorithm cannot honor (widening a pure HBC
// run, switching a non-adaptive one) report false and change nothing.
func BindRuntime(alg protocol.Algorithm, rt *sim.Runtime) Actuator {
	return &runtimeActuator{rt: rt, alg: alg}
}

// iqOf finds the IQ instance an action can tune: the algorithm itself,
// or the one wrapped inside the adaptive switcher.
func iqOf(alg protocol.Algorithm) *core.IQ {
	switch a := alg.(type) {
	case *core.IQ:
		return a
	case *core.Adaptive:
		return a.IQ()
	}
	return nil
}

func (a *runtimeActuator) Act(p Policy) bool {
	switch p.Action {
	case Switch:
		ad, ok := a.alg.(*core.Adaptive)
		if !ok || !ad.Pin(p.Target) {
			return false
		}
		// The mode broadcast itself is paid inside the switcher's next
		// Step, exactly as a cost-driven switch would.
		a.rt.TraceAdapt(int(Switch), switchIndex(p.Target))
		return true

	case Widen, Narrow:
		iq := iqOf(a.alg)
		if iq == nil {
			return false
		}
		f := p.Factor
		if p.Action == Narrow {
			f = 1 / f
		}
		if !iq.ScaleXi(f) {
			return false
		}
		// Nodes re-derive ξ from the broadcast quantile history (§4.2.2),
		// so a root-side rescale must be announced: one control
		// broadcast, same shape as the switcher's mode announcement.
		a.rt.SetPhase(sim.PhaseFilter)
		a.rt.Broadcast(protocol.Request{NBits: a.rt.Sizes().CounterBits})
		a.rt.TraceAdapt(int(p.Action), int(iq.XiScale()*100))
		return true

	case Reroot:
		moved := a.rt.ProactiveReroot()
		if moved == 0 {
			return false
		}
		a.rt.TraceAdapt(int(Reroot), moved)
		return true
	}
	return false
}
