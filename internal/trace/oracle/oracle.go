// Package oracle replays flight-recorder event streams (internal/trace)
// and checks the invariants every simulation run must satisfy:
//
//	(a) quantile correctness — each round's root decision equals the
//	    rank computed by an independent centralized sort oracle, or,
//	    for bounded-error protocols, lies within a configured rank
//	    error (the q-digest n·log σ/k bound);
//	(b) energy conservation — the per-node sum of traced energy debits
//	    equals the ledger's final per-node consumption;
//	(c) message accounting — every convergecast send is matched by a
//	    reception or a drop, broadcast floods reach every radio node,
//	    and frame/wire sizes agree with the link-layer framing model;
//	(d) fault-mode accounting — with a fault plan attached, every ACK
//	    or handshake frame balances send against reception, ARQ
//	    retransmissions obey the framing model, and each degraded
//	    round's decision stays within its traced rank-error bound.
//
// It is the repo-wide correctness harness behind the differential tests
// and is deliberately independent of the emitting code: it recomputes
// ground truth from the measurement source and the msg size model
// rather than trusting anything the trace says about itself.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wsnq/internal/mathx"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// Config selects which invariants a Check replay enforces. Zero-valued
// fields disable their checks, so partial traces (e.g. the tail kept by
// a ring buffer) can still be validated for internal consistency.
type Config struct {
	// Readings returns the centralized view of one round's measurements
	// (virtual-node measurements included). Non-nil enables the
	// quantile check against mathx.KthSmallest.
	Readings func(round int) []int

	// RankBound, when positive, relaxes the quantile check from
	// exactness to a maximum absolute rank error — the contract of the
	// approximate protocols (q-digest: n·log₂σ/k).
	RankBound float64

	// Sizes enables the framing checks (frame counts and wire bits per
	// transmission) when HasSizes is set.
	Sizes    msg.Sizes
	HasSizes bool

	// Energy is the ledger's final per-node cumulative consumption;
	// non-nil enables the conservation check against the traced debits.
	Energy []float64
	// EnergyTol is the absolute conservation tolerance in joules
	// (default 1e-12).
	EnergyTol float64

	// BroadcastSends/BroadcastReceives are the transmissions and
	// receptions one broadcast flood causes on this topology (1 + the
	// retransmitting inner nodes, and every radio node, respectively).
	// BroadcastSends > 0 enables the broadcast accounting check.
	BroadcastSends    int
	BroadcastReceives int

	// AllowDegraded accepts degraded rounds (trace.KindDegraded tags):
	// the tag's rank-error bound widens that round's quantile check.
	// Without it any degraded tag is itself a violation. Set when the
	// run had a fault plan attached.
	AllowDegraded bool

	// LossyBroadcast marks broadcast floods as unreliable (the run
	// had a fault plan attached): traced broadcast drops become legal
	// and the per-flood shape accounting is skipped, since truncated
	// floods no longer reach every radio node.
	LossyBroadcast bool
}

// FromRuntime assembles the full replay configuration for a finished
// run: centralized readings from the runtime's measurement source, the
// framing model, the final ledger snapshot, and the topology's
// broadcast shape. Call it after the run, before further charges.
func FromRuntime(rt *sim.Runtime) Config {
	top := rt.Topology()
	bSends, bReceives := 1, 0
	for u := 0; u < top.N(); u++ {
		if top.IsVirtual(u) {
			continue
		}
		bReceives++
		radioChild := false
		for _, c := range top.Children[u] {
			if !top.IsVirtual(c) {
				radioChild = true
				break
			}
		}
		if radioChild {
			bSends++
		}
	}
	return Config{
		Readings: func(round int) []int {
			vs := make([]int, rt.N())
			for i := range vs {
				vs[i] = rt.ReadingAt(i, round)
			}
			return vs
		},
		Sizes:             rt.Sizes(),
		HasSizes:          true,
		Energy:            rt.Ledger().Snapshot(),
		BroadcastSends:    bSends,
		BroadcastReceives: bReceives,
		AllowDegraded:     rt.FaultsAttached(),
		LossyBroadcast:    rt.FaultsAttached(),
	}
}

// Violation is one failed invariant.
type Violation struct {
	Round     int    // -1 for run-level violations
	Invariant string // "quantile", "energy", "accounting", "framing"
	Detail    string
}

func (v Violation) String() string {
	if v.Round < 0 {
		return fmt.Sprintf("[%s] %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%s] round %d: %s", v.Invariant, v.Round, v.Detail)
}

// Report summarizes one replay.
type Report struct {
	Events     int
	Rounds     int // rounds carrying a decision
	Decisions  int
	Sends      int // unicast radio transmissions
	Receives   int // unicast receptions
	Drops      int
	Retries    int // ARQ retransmissions
	AckFrames  int // link-layer ACK / handshake frames
	Degraded   int // rounds tagged with a degraded answer
	Adapts     int // closed-loop controller actions applied
	Violations []Violation
}

// Err returns nil when every enforced invariant held, or an error
// naming up to five violations.
func (r Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d invariant violation(s):", len(r.Violations))
	for i, v := range r.Violations {
		if i == 5 {
			fmt.Fprintf(&b, " …and %d more", len(r.Violations)-i)
			break
		}
		b.WriteString("\n  " + v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) violate(round int, invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Round: round, Invariant: invariant, Detail: fmt.Sprintf(format, args...),
	})
}

// roundFlow tallies one round's unicast traffic.
type roundFlow struct {
	sends, receives, drops int
}

// Check replays events against the configured invariants.
func Check(events []trace.Event, cfg Config) Report {
	rep := Report{Events: len(events)}
	tol := cfg.EnergyTol
	if tol <= 0 {
		tol = 1e-12
	}

	flows := map[int]*roundFlow{}
	decided := map[int]bool{}
	var energySum []float64
	bSends, bReceives := 0, 0
	ackSends, ackReceives := 0, 0
	// Decisions are buffered: the degraded tag that widens a round's
	// quantile bound is traced after the decision it covers.
	var decisions []trace.Event
	degradedBound := map[int]int{}

	flow := func(round int) *roundFlow {
		f := flows[round]
		if f == nil {
			f = &roundFlow{}
			flows[round] = f
		}
		return f
	}

	for _, e := range events {
		switch e.Kind {
		case trace.KindSend:
			if e.Cast == trace.Ack {
				rep.AckFrames++
				ackSends++
				rep.checkAckFraming(cfg, e)
				continue
			}
			rep.checkFraming(cfg, e)
			if e.Cast == trace.Broadcast {
				bSends++
			} else {
				rep.Sends++
				flow(e.Round).sends++
			}
		case trace.KindReceive:
			if e.Cast == trace.Ack {
				ackReceives++
				rep.checkAckFraming(cfg, e)
				continue
			}
			if e.Cast == trace.Broadcast {
				bReceives++
			} else {
				rep.Receives++
				flow(e.Round).receives++
			}
		case trace.KindDrop:
			if e.Cast == trace.Broadcast {
				if !cfg.LossyBroadcast {
					rep.violate(e.Round, "accounting", "broadcast traffic is reliable but a drop was traced (node %d)", e.Node)
				}
				continue
			}
			rep.Drops++
			flow(e.Round).drops++
		case trace.KindRetry:
			rep.Retries++
			rep.checkFraming(cfg, e)
			if e.Aux < 1 {
				rep.violate(e.Round, "accounting", "retry event with attempt %d < 1 (node %d)", e.Aux, e.Node)
			}
		case trace.KindFragment:
			if e.Frames < 2 {
				rep.violate(e.Round, "framing", "fragment event for a %d-frame payload (node %d)", e.Frames, e.Node)
			}
			rep.checkFraming(cfg, e)
		case trace.KindEnergy:
			if e.Node < 0 {
				rep.violate(e.Round, "energy", "debit charged to the root (it has infinite supply)")
				continue
			}
			if e.Joules < 0 {
				rep.violate(e.Round, "energy", "negative debit %g J at node %d", e.Joules, e.Node)
			}
			for len(energySum) <= e.Node {
				energySum = append(energySum, 0)
			}
			energySum[e.Node] += e.Joules
		case trace.KindDegraded:
			if !cfg.AllowDegraded {
				rep.violate(e.Round, "quantile", "degraded answer traced without an attached fault plan")
				continue
			}
			rep.Degraded++
			if e.Values > e.Value {
				rep.violate(e.Round, "accounting", "%d orphans exceed the %d unreachable sensors they are a subset of", e.Values, e.Value)
			}
			if e.Err > degradedBound[e.Round] {
				degradedBound[e.Round] = e.Err
			}
		case trace.KindAdapt:
			rep.Adapts++
		case trace.KindDecision:
			if decided[e.Round] {
				rep.violate(e.Round, "quantile", "multiple decisions in one round")
				continue
			}
			decided[e.Round] = true
			rep.Decisions++
			decisions = append(decisions, e)
		}
	}
	rep.Rounds = len(decided)

	// (a) quantile correctness, with any degraded tag widening its
	// round's acceptable rank error.
	for _, e := range decisions {
		bound := cfg.RankBound
		if db := float64(degradedBound[e.Round]); db > bound {
			bound = db
		}
		rep.checkDecision(cfg, e, bound)
	}

	// (c) unicast accounting, per round: sends = receives + drops.
	rounds := make([]int, 0, len(flows))
	for r := range flows {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		f := flows[r]
		if f.sends != f.receives+f.drops {
			rep.violate(r, "accounting", "%d sends ≠ %d receives + %d drops", f.sends, f.receives, f.drops)
		}
	}
	// (c) ACK accounting: acks and handshake frames are modeled
	// reliable, so every ack send has exactly one matching reception.
	if ackSends != ackReceives {
		rep.violate(-1, "accounting", "%d ack sends ≠ %d ack receives (acks are reliable)", ackSends, ackReceives)
	}
	// (c) broadcast accounting: every flood causes a fixed number of
	// transmissions and receptions on a given topology, so the totals
	// must be an integer multiple of that shape. A lossy or faulty
	// downlink truncates floods arbitrarily, so no shape holds.
	if cfg.BroadcastSends > 0 && !cfg.LossyBroadcast {
		if bSends%cfg.BroadcastSends != 0 {
			rep.violate(-1, "accounting", "%d broadcast sends is not a multiple of the %d per flood", bSends, cfg.BroadcastSends)
		} else if floods := bSends / cfg.BroadcastSends; bReceives != floods*cfg.BroadcastReceives {
			rep.violate(-1, "accounting", "%d floods should cause %d broadcast receives, traced %d",
				floods, floods*cfg.BroadcastReceives, bReceives)
		}
	}
	// (b) energy conservation against the ledger.
	if cfg.Energy != nil {
		for node, sum := range energySum {
			if sum == 0 {
				continue // never debited; the unpaid check below covers it
			}
			if node >= len(cfg.Energy) {
				rep.violate(-1, "energy", "debit for node %d outside the %d-node ledger", node, len(cfg.Energy))
				continue
			}
			if math.Abs(sum-cfg.Energy[node]) > tol {
				rep.violate(-1, "energy", "node %d: traced debits sum to %.12g J, ledger says %.12g J", node, sum, cfg.Energy[node])
			}
		}
		for node, spent := range cfg.Energy {
			if spent > tol && (node >= len(energySum) || energySum[node] == 0) {
				rep.violate(-1, "energy", "node %d: ledger spent %.12g J with no traced debit", node, spent)
			}
		}
	}
	return rep
}

// checkFraming verifies a transmission's frame count and wire size
// against the link-layer model.
func (rep *Report) checkFraming(cfg Config, e trace.Event) {
	if !cfg.HasSizes {
		return
	}
	if want := cfg.Sizes.Frames(e.Bits); e.Frames != want {
		rep.violate(e.Round, "framing", "%d-bit payload in %d frames, framing model says %d (node %d)", e.Bits, e.Frames, want, e.Node)
	}
	if want := cfg.Sizes.WireBits(e.Bits); e.Wire != want {
		rep.violate(e.Round, "framing", "%d-bit payload as %d wire bits, framing model says %d (node %d)", e.Bits, e.Wire, want, e.Node)
	}
}

// checkAckFraming verifies an ack or handshake control frame: always a
// single header-only frame on the wire.
func (rep *Report) checkAckFraming(cfg Config, e trace.Event) {
	if !cfg.HasSizes {
		return
	}
	if e.Frames != 1 || e.Bits != 0 || e.Wire != cfg.Sizes.HeaderBits {
		rep.violate(e.Round, "framing", "ack frame with %d payload bits, %d wire bits, %d frames; want a single %d-bit header (node %d)",
			e.Bits, e.Wire, e.Frames, cfg.Sizes.HeaderBits, e.Node)
	}
}

// checkDecision verifies one root decision against the centralized sort
// oracle, within bound when positive (the configured protocol bound,
// widened by the round's degraded tag if any).
func (rep *Report) checkDecision(cfg Config, e trace.Event, bound float64) {
	if cfg.Readings == nil {
		return
	}
	k := e.Aux
	readings := cfg.Readings(e.Round)
	if k < 1 || k > len(readings) {
		rep.violate(e.Round, "quantile", "rank %d outside [1,%d]", k, len(readings))
		return
	}
	if bound > 0 {
		if re := rankError(readings, k, e.Value); float64(re) > bound {
			rep.violate(e.Round, "quantile", "reported %d has rank error %d > bound %.2f (k=%d)", e.Value, re, bound, k)
		}
		return
	}
	want := mathx.KthSmallest(readings, k)
	if e.Value != want {
		rep.violate(e.Round, "quantile", "reported %d, centralized sort oracle says %d (k=%d, n=%d)", e.Value, want, k, len(readings))
	}
}

// rankError returns the distance between k and the closest rank the
// reported value occupies in the readings; 0 means exact.
func rankError(readings []int, k, reported int) int {
	below, equal := 0, 0
	for _, v := range readings {
		if v < reported {
			below++
		} else if v == reported {
			equal++
		}
	}
	loRank, hiRank := below+1, below+equal
	switch {
	case k < loRank:
		return loRank - k
	case k > hiRank:
		return k - hiRank
	default:
		return 0
	}
}
