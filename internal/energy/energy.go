// Package energy implements the first-order radio energy model the
// paper adopts from Heinzelman et al. [11] and the per-node bookkeeping
// needed for the two evaluation metrics: maximum per-node energy
// consumption and network lifetime.
//
// Sending s bits over a radio range of ρ meters costs
//
//	E_send(s) = (α + β·ρ^p) · s
//
// and receiving s bits costs E_recv(s) = γ·s. The paper prints α and γ
// as 50 mJ/bit, which contradicts its own 30 mJ initial budget; the
// cited source uses 50 nJ/bit, so that is the default here (the β of
// 10 pJ/bit/m² is kept). See DESIGN.md §2.
package energy

import (
	"fmt"
	"math"

	"wsnq/internal/trace"
)

// Params configures the radio cost function.
type Params struct {
	Alpha float64 // distance-independent send cost per bit [J/bit]
	Beta  float64 // distance-dependent send coefficient [J/bit/m^p]
	P     float64 // path-loss exponent
	Gamma float64 // receive cost per bit [J/bit]

	InitialBudget float64 // per-node energy supply [J]
}

// DefaultParams returns the calibrated defaults: α = γ = 50 nJ/bit,
// β = 10 pJ/bit/m², p = 2, 30 mJ initial supply.
func DefaultParams() Params {
	return Params{
		Alpha:         50e-9,
		Beta:          10e-12,
		P:             2,
		Gamma:         50e-9,
		InitialBudget: 30e-3,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Beta < 0 || p.Gamma <= 0 {
		return fmt.Errorf("energy: cost coefficients must be positive: %+v", p)
	}
	if p.P < 1 || p.P > 6 {
		return fmt.Errorf("energy: implausible path-loss exponent %v", p.P)
	}
	if p.InitialBudget <= 0 {
		return fmt.Errorf("energy: initial budget must be positive, got %v", p.InitialBudget)
	}
	return nil
}

// SendCost returns the energy in joules to transmit bits over range rho.
func (p Params) SendCost(bits int, rho float64) float64 {
	if bits <= 0 {
		return 0
	}
	return p.sendPerBit(rho) * float64(bits)
}

// sendPerBit returns the per-bit transmission cost α+β·ρ^p.
func (p Params) sendPerBit(rho float64) float64 {
	return p.Alpha + p.Beta*math.Pow(rho, p.P)
}

// RecvCost returns the energy in joules to receive bits.
func (p Params) RecvCost(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	return p.Gamma * float64(bits)
}

// Ledger tracks per-node energy consumption across a simulation run.
// Node indices are dense in [0, n). The root node of the network is
// accounted separately by the caller (it has infinite supply) and
// should simply not appear in the ledger.
type Ledger struct {
	params Params
	spent  []float64 // cumulative consumption per node [J]

	// The last range ChargeSend charged and its per-bit cost. Every
	// hop pays the nominal range unless charging is by distance, so
	// math.Pow runs once per distinct range. NaN never compares equal,
	// so the initial NaN forces the first computation.
	sendRho, sendPerBit float64

	tr    trace.Collector               // nil = debit tracing disabled
	clock func() (round int, ph string) // round/phase stamp for debit events
}

// NewLedger creates a ledger for n sensor nodes.
func NewLedger(n int, params Params) *Ledger {
	return &Ledger{
		params:  params,
		spent:   make([]float64, n),
		sendRho: math.NaN(),
	}
}

// Params returns the radio cost parameters the ledger charges with.
func (l *Ledger) Params() Params { return l.params }

// Nodes returns the number of tracked nodes.
func (l *Ledger) Nodes() int { return len(l.spent) }

// SetTrace attaches a flight-recorder collector that receives one
// trace.KindEnergy event per debit, stamped with clock's round and
// phase. Passing a nil collector detaches the hook.
func (l *Ledger) SetTrace(c trace.Collector, clock func() (round int, ph string)) {
	if c == nil || clock == nil {
		l.tr, l.clock = nil, nil
		return
	}
	l.tr, l.clock = c, clock
}

// debit emits one energy event for a booked charge.
func (l *Ledger) debit(node, bits int, joules float64, op int) {
	round, ph := l.clock()
	l.tr.Collect(trace.Event{
		Kind: trace.KindEnergy, Round: round, Phase: ph,
		Node: node, Wire: bits, Joules: joules, Aux: op,
	})
}

// ChargeSend charges node its cost for transmitting bits over rho meters.
// Charging a negative node index is a no-op (the root sends for free).
func (l *Ledger) ChargeSend(node, bits int, rho float64) {
	if node < 0 {
		return
	}
	// The same arithmetic as Params.SendCost, with α+β·ρ^p memoized.
	c := 0.0
	if bits > 0 {
		if rho != l.sendRho {
			l.sendRho, l.sendPerBit = rho, l.params.sendPerBit(rho)
		}
		c = l.sendPerBit * float64(bits)
	}
	l.spent[node] += c
	if l.tr != nil {
		l.debit(node, bits, c, trace.EnergySend)
	}
}

// ChargeRecv charges node its cost for receiving bits.
// Charging a negative node index is a no-op (the root receives for free).
func (l *Ledger) ChargeRecv(node, bits int) {
	if node < 0 {
		return
	}
	c := l.params.RecvCost(bits)
	l.spent[node] += c
	if l.tr != nil {
		l.debit(node, bits, c, trace.EnergyRecv)
	}
}

// ChargeFlood books one reliable root flood of bits bits in a single
// pass in node-index order: every node not marked virtual pays one
// reception, as ChargeRecv charges it, and every relay among them then
// pays one transmission over rho meters, as ChargeSend charges it. It
// returns the number of relays charged. virtual may be nil (no virtual
// nodes); virtual nodes share their host's radio and pay nothing.
//
// The result is bit-identical to a top-down walk of ChargeRecv and
// ChargeSend calls: each node's consumption is its own accumulator, and
// the pass adds a node's reception before its send exactly as the walk
// does, so the order across nodes changes no sum.
//
// ChargeFlood emits no debit events, so it must only be called with no
// tracer attached (see SetTrace).
func (l *Ledger) ChargeFlood(virtual, relay []bool, bits int, rho float64) (relays int) {
	recv, send := l.params.RecvCost(bits), 0.0
	if bits > 0 {
		if rho != l.sendRho {
			l.sendRho, l.sendPerBit = rho, l.params.sendPerBit(rho)
		}
		send = l.sendPerBit * float64(bits)
	}
	for u := range l.spent {
		if virtual != nil && virtual[u] {
			continue
		}
		l.spent[u] += recv
		if relay[u] {
			l.spent[u] += send
			relays++
		}
	}
	return relays
}

// Spent returns node's cumulative consumption in joules.
func (l *Ledger) Spent(node int) float64 { return l.spent[node] }

// TotalSpent returns the network-wide cumulative consumption in joules.
func (l *Ledger) TotalSpent() float64 {
	t := 0.0
	for _, e := range l.spent {
		t += e
	}
	return t
}

// SpentTotals returns the network-wide and hottest-node cumulative
// consumption in one pass — the per-round sampling fast path of the
// series recorder, where separate TotalSpent and MaxSpent scans would
// double the cost.
func (l *Ledger) SpentTotals() (total, hottest float64) {
	for _, e := range l.spent {
		total += e
		if e > hottest {
			hottest = e
		}
	}
	return total, hottest
}

// MaxSpent returns the cumulative consumption of the hottest node and
// its index. It returns (-1, 0) for an empty ledger.
func (l *Ledger) MaxSpent() (node int, joules float64) {
	node = -1
	for i, e := range l.spent {
		if node == -1 || e > joules {
			node, joules = i, e
		}
	}
	return node, joules
}

// Exhausted reports whether any node has consumed at least the initial
// budget, i.e. whether the network (as the paper defines lifetime) is dead.
func (l *Ledger) Exhausted() bool {
	for _, e := range l.spent {
		if e >= l.params.InitialBudget {
			return true
		}
	}
	return false
}

// Snapshot returns a copy of every node's cumulative consumption.
func (l *Ledger) Snapshot() []float64 {
	return append([]float64(nil), l.spent...)
}

// Reset clears all consumption, keeping the parameters.
func (l *Ledger) Reset() {
	clear(l.spent)
}
