package core

import (
	"fmt"

	"wsnq/internal/baseline"
	"wsnq/internal/costmodel"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
)

// Adaptive realizes the strategy switching the paper sketches in §4.2:
// "due to the similar structure of POS, HBC and IQ it is possible to
// switch between these approaches without reinitializing the network".
// All three strategies run over one shared filter/count state; per
// round the switcher picks the one with the lowest exponentially
// weighted average of measured network traffic, probing the others
// periodically so their estimates stay fresh. Switching costs one
// control broadcast (nodes must learn which protocol the next round
// speaks).
type Adaptive struct {
	AdaptiveOptions

	iq  *IQ
	hbc *HBC
	pos *baseline.POS

	strategies []strategy
	current    int
	rounds     int
	lastBits   int
	pinned     int // controller-pinned strategy index; -1 = cost-driven

	k, n int
	prev []int // shared previous-reading array
}

// strategy is one switchable protocol plus its cost estimate.
type strategy struct {
	name string
	alg  protocol.Algorithm
	cost ewma
}

// AdaptiveOptions tunes the switcher.
type AdaptiveOptions struct {
	// ProbeEvery forces a currently unused strategy to run once every
	// this many rounds (round-robin over the non-preferred ones).
	// Default 16.
	ProbeEvery int
	// Alpha is the EWMA smoothing factor in (0,1]. Default 0.25.
	Alpha float64
	// UsePOS includes POS as a third strategy (off by default: the
	// paper's own evaluation shows POS dominated by HBC, but §4.2 names
	// it as switchable).
	UsePOS bool
	// IQ, HBC and POS configure the wrapped strategies. HBC must stay
	// in basic (point filter) mode for the shared state to line up;
	// NoThresholdBroadcast is rejected.
	IQ  IQOptions
	HBC HBCOptions
	POS baseline.POSOptions
}

// DefaultAdaptiveOptions wraps the §5.1.6 configurations.
func DefaultAdaptiveOptions() AdaptiveOptions {
	return AdaptiveOptions{
		ProbeEvery: 16,
		Alpha:      0.25,
		IQ:         DefaultIQOptions(),
		HBC:        DefaultHBCOptions(),
		POS:        baseline.DefaultPOSOptions(),
	}
}

// NewAdaptive returns an adaptive switcher.
func NewAdaptive(opts AdaptiveOptions) *Adaptive {
	if opts.ProbeEvery < 2 {
		opts.ProbeEvery = 16
	}
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		opts.Alpha = 0.25
	}
	return &Adaptive{
		AdaptiveOptions: opts,
		iq:              NewIQ(opts.IQ),
		hbc:             NewHBC(opts.HBC),
		pos:             baseline.NewPOS(opts.POS),
		pinned:          -1,
	}
}

// Name implements protocol.Algorithm.
func (a *Adaptive) Name() string { return "ADAPT" }

// Pin forces the named strategy ("IQ", "HBC", "POS"; case-sensitive
// protocol names) for every following round, overriding the EWMA cost
// comparison — the hook the closed-loop controller (internal/adapt)
// drives on alert signals instead of measured traffic. The switch
// itself still happens inside the next Step, over the §4.2 shared
// state, paying the usual mode-switch broadcast. Returns false when the
// name matches no initialized strategy (e.g. "POS" without UsePOS) or
// before Init.
func (a *Adaptive) Pin(name string) bool {
	for i := range a.strategies {
		if a.strategies[i].name == name {
			a.pinned = i
			return true
		}
	}
	return false
}

// IQ exposes the wrapped IQ strategy so the closed-loop controller can
// tune its Ξ interval (IQ.ScaleXi) through the switcher.
func (a *Adaptive) IQ() *IQ { return a.iq }

// Init implements protocol.Algorithm: one TAG initialization seeds the
// shared state of every strategy.
func (a *Adaptive) Init(rt *sim.Runtime, k int) (int, error) {
	if a.HBC.NoThresholdBroadcast {
		return 0, fmt.Errorf("core: adaptive switching requires HBC's basic (point filter) mode")
	}
	q, err := a.iq.Init(rt, k)
	if err != nil {
		return 0, err
	}
	a.k, a.n = k, rt.N()
	a.prev = a.iq.prev // all strategies alias one snapshot array

	// Seed HBC without a second snapshot query.
	b := a.HBC.Buckets
	if b <= 0 {
		if b, err = costmodel.FromSizes(rt.Sizes()).BucketCount(universeSize(rt)); err != nil {
			return 0, err
		}
	}
	if b < 2 {
		b = 2
	}
	a.hbc.b = b
	a.hbc.k, a.hbc.n = k, a.n
	a.hbc.prev = a.prev

	a.strategies = []strategy{
		{name: a.iq.Name(), alg: a.iq},
		{name: a.hbc.Name(), alg: a.hbc},
	}
	if a.UsePOS {
		a.strategies = append(a.strategies, strategy{name: a.pos.Name(), alg: a.pos})
	}
	a.current = 0
	a.syncAll(a.iq.filter, a.iq.state)
	a.lastBits = rt.Stats().BitsSent
	return q, nil
}

// Step implements protocol.Algorithm.
func (a *Adaptive) Step(rt *sim.Runtime) (int, error) {
	if a.prev == nil {
		return 0, fmt.Errorf("core: adaptive not initialized")
	}
	a.rounds++
	want := a.choose()
	if want != a.current {
		// Mode-switch announcement.
		rt.SetPhase(sim.PhaseFilter)
		rt.Broadcast(protocol.Request{NBits: rt.Sizes().CounterBits})
		a.current = want
	}

	s := &a.strategies[a.current]
	q, err := s.alg.Step(rt)
	if err != nil {
		return 0, err
	}
	filter, st := a.sharedOf(s.alg)
	a.syncAll(filter, st)
	// Keep IQ's trend window warm regardless of who ran: quantile
	// changes are broadcast in every mode, so nodes can maintain ξ too.
	if _, ranIQ := s.alg.(*IQ); !ranIQ {
		a.iq.observe(q)
	}

	bits := rt.Stats().BitsSent
	s.cost.add(float64(bits-a.lastBits), a.Alpha)
	a.lastBits = bits
	return q, nil
}

// choose picks the strategy index for the next round: a
// controller-pinned strategy wins outright; otherwise the cheapest
// estimate, with probing rounds visiting the stalest alternative.
func (a *Adaptive) choose() int {
	if a.pinned >= 0 && a.pinned < len(a.strategies) {
		return a.pinned
	}
	// Warm-up: make sure every strategy has at least one sample.
	for i := range a.strategies {
		if a.strategies[i].cost.n == 0 {
			return i
		}
	}
	best := 0
	for i := range a.strategies {
		if a.strategies[i].cost.v < a.strategies[best].cost.v {
			best = i
		}
	}
	if a.rounds%a.ProbeEvery == 0 && len(a.strategies) > 1 {
		// Probe the non-preferred strategy whose estimate is oldest —
		// approximated by round-robin over the alternatives.
		alt := (a.rounds / a.ProbeEvery) % (len(a.strategies) - 1)
		for i := range a.strategies {
			if i == best {
				continue
			}
			if alt == 0 {
				return i
			}
			alt--
		}
	}
	return best
}

// sharedOf extracts the switchable state from whichever strategy ran.
func (a *Adaptive) sharedOf(alg protocol.Algorithm) (int, protocol.LEG) {
	switch s := alg.(type) {
	case *IQ:
		return s.filter, s.state
	case *HBC:
		return s.q, s.state
	case *baseline.POS:
		return s.Shared()
	default:
		panic("core: unknown adaptive strategy")
	}
}

// syncAll pushes the shared state into every strategy.
func (a *Adaptive) syncAll(filter int, st protocol.LEG) {
	a.iq.filter = filter
	a.iq.state = st
	a.iq.k, a.iq.n = a.k, a.n
	a.iq.prev = a.prev

	a.hbc.q = filter
	a.hbc.lb, a.hbc.ub = filter, filter+1
	a.hbc.state = st
	a.hbc.prev = a.prev

	a.pos.AdoptShared(a.k, a.n, filter, st, a.prev)
}

// ewma is a tiny exponentially weighted moving average.
type ewma struct {
	v float64
	n int
}

func (e *ewma) add(x, alpha float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = alpha*x + (1-alpha)*e.v
	}
	e.n++
}
