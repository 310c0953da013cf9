// Package sim is the deterministic, round-based simulation engine the
// quantile protocols run on. It provides the two tree communication
// primitives every algorithm in the paper is built from — an
// energy-accounted convergecast (leaves to root) and broadcast (root to
// leaves) — plus per-round readings, traffic statistics, and optional
// per-hop loss injection on convergecast data traffic.
package sim

import (
	"fmt"
	"math/rand"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/mathx"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// Payload is a logical unit handed from one tree node to the next.
// Bits reports its encoded size; the engine adds link-layer framing.
type Payload interface {
	Bits() int
}

// ValueCarrier is optionally implemented by payloads that transport raw
// measurements; the engine uses it for the transmitted-values metric.
type ValueCarrier interface {
	ValueCount() int
}

// Config assembles a simulation run.
type Config struct {
	Topology *wsn.Topology
	Source   data.Source
	Sizes    msg.Sizes
	Energy   energy.Params

	// LossProb drops each convergecast hop's payload with this
	// probability, after the sender has paid for it. Broadcast
	// (control) traffic never goes through the loss sampler: floods
	// are reliable unless faults are attached (see DESIGN.md §4f).
	LossProb float64

	// ChargeByDistance charges transmissions by the actual link length
	// instead of the nominal radio range ρ (the paper's cost function
	// uses ρ; real radios with power control pay per distance — the
	// abl-energy study compares the two). Broadcast transmissions pay
	// for their farthest child.
	ChargeByDistance bool

	// Seed drives loss sampling. Runs with LossProb = 0 are fully
	// deterministic regardless of the seed.
	Seed int64

	// Trace, when non-nil, attaches a flight-recorder collector from
	// the start (see Runtime.SetTrace). A nil collector leaves tracing
	// disabled at the cost of one nil check per potential event.
	Trace trace.Collector
}

// Phase labels classify traffic for the cost-anatomy analysis.
// Algorithms call SetPhase before each protocol stage.
const (
	PhaseInit       = "init"       // initialization round
	PhaseValidation = "validation" // per-round validation convergecast
	PhaseRefinement = "refinement" // refinement requests and responses
	PhaseFilter     = "filter"     // filter/threshold broadcasts
	PhaseCollect    = "collect"    // stateless per-round collection (TAG, summaries)
	PhaseOther      = "other"      // anything unlabeled
)

// phaseTable is the ordered table of traffic labels: Stats.PerPhase
// is indexed by it, and a runtime's current phase is an index into it.
var phaseTable = [...]string{PhaseInit, PhaseValidation, PhaseRefinement, PhaseFilter, PhaseCollect, PhaseOther}

// phaseOther is the index of PhaseOther, under which "" and any label
// outside the table book.
const phaseOther = len(phaseTable) - 1

// phaseIndex resolves a traffic label to its table index.
func phaseIndex(label string) int {
	for i, name := range phaseTable {
		if name == label {
			return i
		}
	}
	return phaseOther
}

// PhaseName returns the label at index i of the phase table, the
// phase whose tally is Stats.PerPhase[i].
func PhaseName(i int) string { return phaseTable[i] }

// PhaseStats aggregates the traffic of one protocol phase.
type PhaseStats struct {
	Payloads int // logical payload transmissions (per hop)
	Frames   int // link-layer frames
	Bits     int // bits on the air, framing included
	Values   int // raw measurements carried
}

// Stats aggregates traffic over the lifetime of a Runtime.
type Stats struct {
	Convergecasts int // convergecast phases executed
	Broadcasts    int // broadcast phases executed
	FramesSent    int // link-layer frames, across all transmissions
	PayloadsSent  int // logical payload transmissions (per hop)
	BitsSent      int // total bits on the air, framing included
	ValuesSent    int // raw measurements carried, per hop
	PayloadsLost  int // payloads lost in flight, both directions

	PayloadsLostUp   int // convergecast (upstream) payloads lost
	PayloadsLostDown int // broadcast (downstream) deliveries lost
	Retries          int // ARQ retransmissions
	AckFrames        int // link-layer ACK frames (ARQ and join handshakes)
	Adapts           int // closed-loop controller actions applied

	// PerPhase attributes the traffic to protocol stages, indexed by
	// the phase table (PhaseName names entry i; Phase looks one up by
	// label).
	PerPhase [len(phaseTable)]PhaseStats
}

// Phase returns the tally of one traffic label; "" and labels outside
// the phase table read the PhaseOther tally.
func (s *Stats) Phase(label string) PhaseStats { return s.PerPhase[phaseIndex(label)] }

// Runtime is the live simulation state. It is not safe for concurrent
// use; each goroutine should own its Runtime.
type Runtime struct {
	top    *wsn.Topology
	src    data.Source
	sizes  msg.Sizes
	ledger *energy.Ledger
	loss   float64
	byDist bool
	rng    *rand.Rand

	round  int
	phase  int // index into phaseTable
	stats  Stats
	tr     trace.Collector // nil = flight recorder disabled
	perHop trace.Collector // tr when it reads per-hop events, else nil
	po     PhaseObserver   // nil = continuous profiling disabled
	flt    *faultState     // nil = fault/recovery layer disabled

	// Convergecast scratch, reused across calls: the delivered-payload
	// stack with each entry's receiver, and the root's arrivals.
	inbox   []Payload
	inboxTo []int
	atRoot  []Payload

	// flags is the walks' per-node scratch: Convergecast's visit mask
	// over the speakers' root paths and Broadcast's delivery flags.
	// Both leave it all-false (Convergecast clears each mark as it
	// visits the node), so neither clears it first.
	flags []bool

	holders []int // Holders' result, reused across calls
	// allHolders makes Holders return every sensor, so every ranged
	// convergecast walks the whole tree: the full-walk twin of the
	// selective walk's differential test.
	allHolders bool

	// Round data: every node's reading for round readRound, filled by
	// the first Reading of each round.
	readings  []int
	readRound int

	oracle []int // Oracle's reading buffer, refilled on every call
	dfs    []int // subtreeSize's stack, reused across calls
}

// PhaseObserver is the continuous-profiling hook (internal/prof): the
// runtime reports every actual phase transition to it, and closes it
// when the run's event stream ends. Observing never influences the
// simulation — it is the profiling analogue of the trace collector.
type PhaseObserver interface {
	// Switch is called with the phase table's label when the phase
	// actually changes (not on SetPhase calls that resolve to the
	// current phase).
	Switch(phase string)
	// Close flushes the open span at the end of the run.
	Close()
}

// New validates the configuration and builds a Runtime positioned at
// round 0.
func New(cfg Config) (*Runtime, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: nil source")
	}
	if cfg.Topology.N() != cfg.Source.Nodes() {
		return nil, fmt.Errorf("sim: topology has %d nodes, source has %d", cfg.Topology.N(), cfg.Source.Nodes())
	}
	if err := cfg.Sizes.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("sim: loss probability %v out of [0,1)", cfg.LossProb)
	}
	rt := &Runtime{
		top:       cfg.Topology,
		src:       cfg.Source,
		sizes:     cfg.Sizes,
		ledger:    energy.NewLedger(cfg.Topology.N(), cfg.Energy),
		loss:      cfg.LossProb,
		byDist:    cfg.ChargeByDistance,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		phase:     phaseOther,
		readings:  make([]int, cfg.Topology.N()),
		readRound: -1,
		flags:     make([]bool, cfg.Topology.N()),
	}
	if cfg.Trace != nil {
		rt.SetTrace(cfg.Trace)
	}
	return rt, nil
}

// SetTrace attaches a flight-recorder collector to the runtime and its
// energy ledger, and opens the current round with a round-start event.
// Passing nil detaches the recorder. A trace.RoundCollector gets only
// the round-level events: the per-hop sites and the ledger build none.
// Tracing never influences the simulation itself: payload routing,
// loss sampling, and energy charges are identical with and without a
// collector.
func (rt *Runtime) SetTrace(c trace.Collector) {
	rt.tr, rt.perHop = c, c
	if _, ok := c.(trace.RoundCollector); ok {
		rt.perHop = nil
	}
	rt.ledger.SetTrace(rt.perHop, func() (int, string) { return rt.round, rt.Phase() })
	if c != nil {
		c.Collect(trace.Event{Kind: trace.KindRoundStart, Round: rt.round, Node: -1})
	}
}

// Trace returns the attached collector (nil when tracing is disabled).
func (rt *Runtime) Trace() trace.Collector { return rt.tr }

// N returns the number of sensor nodes |N|.
func (rt *Runtime) N() int { return rt.top.N() }

// Topology returns the routing tree.
func (rt *Runtime) Topology() *wsn.Topology { return rt.top }

// Sizes returns the link-layer size configuration.
func (rt *Runtime) Sizes() msg.Sizes { return rt.sizes }

// Ledger returns the energy ledger.
func (rt *Runtime) Ledger() *energy.Ledger { return rt.ledger }

// Stats returns a snapshot of the traffic statistics: a plain value
// that shares no state with the runtime.
func (rt *Runtime) Stats() Stats { return rt.stats }

// SetPhase labels all subsequent traffic with a protocol stage, one of
// the Phase* constants; "" and any other label book as PhaseOther.
// With a profiling observer attached, an actual phase change also
// closes the open attribution span.
func (rt *Runtime) SetPhase(phase string) {
	i := phaseIndex(phase)
	if i == rt.phase {
		return
	}
	rt.phase = i
	if rt.po != nil {
		rt.po.Switch(phaseTable[i])
	}
}

// SetProf attaches a profiling observer and opens its first span under
// the current phase label. Passing nil detaches it without flushing —
// use EndTrace (or the observer's own Close) to flush.
func (rt *Runtime) SetProf(po PhaseObserver) {
	rt.po = po
	if po != nil {
		po.Switch(rt.Phase())
	}
}

// Phase returns the current traffic label, an entry of the phase
// table.
func (rt *Runtime) Phase() string { return phaseTable[rt.phase] }

// account books one transmission into the global and per-phase stats.
func (rt *Runtime) account(wire, frames, values int) { rt.accountN(1, wire, frames, values) }

// accountN books n identical transmissions into the global and
// per-phase stats.
func (rt *Runtime) accountN(n, wire, frames, values int) {
	rt.stats.FramesSent += n * frames
	rt.stats.PayloadsSent += n
	rt.stats.BitsSent += n * wire
	rt.stats.ValuesSent += n * values
	ps := &rt.stats.PerPhase[rt.phase]
	ps.Payloads += n
	ps.Frames += n * frames
	ps.Bits += n * wire
	ps.Values += n * values
}

// Round returns the current round number, starting at 0.
func (rt *Runtime) Round() int { return rt.round }

// LossProb returns the current per-hop convergecast loss probability.
func (rt *Runtime) LossProb() float64 { return rt.loss }

// SetLossProb adjusts the loss probability mid-run. Protocol
// initialization is typically modeled as reliable (acknowledged)
// transfer, so harnesses disable loss around Init.
func (rt *Runtime) SetLossProb(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("sim: loss probability %v out of [0,1)", p)
	}
	rt.loss = p
	return nil
}

// AdvanceRound moves to the next round; subsequent Reading calls see
// the new measurements.
func (rt *Runtime) AdvanceRound() {
	if rt.flt != nil {
		rt.endRoundFaults()
	}
	if rt.tr != nil {
		rt.tr.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: rt.round, Node: -1})
	}
	rt.round++
	if rt.tr != nil {
		rt.tr.Collect(trace.Event{Kind: trace.KindRoundStart, Round: rt.round, Node: -1})
	}
	if rt.flt != nil {
		rt.startRoundFaults()
	}
}

// EndTrace marks the end of the event stream: it emits the final
// round's RoundEnd event, which AdvanceRound otherwise only emits once
// the next round begins. Run drivers call it once after the last
// round, so per-round collectors (series ingestion, the invariant
// oracle) see the closing round too. A no-op without a collector.
func (rt *Runtime) EndTrace() {
	if rt.po != nil {
		rt.po.Close()
		rt.po = nil
	}
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: rt.round, Node: -1})
}

// TraceDecision returns the absolute rank error of the root's answer q
// for the queried rank k against the oracle data (RankErrorOf's O(N)
// scan) and, when a collector is attached, records the decision stamped
// with that error in the flight recorder. Drivers (experiment.Driver,
// test harnesses) call it once per round; the invariant oracle replays
// the decision events against a centralized sort oracle.
func (rt *Runtime) TraceDecision(k, q int) int {
	rankErr := rt.RankErrorOf(k, q)
	if rt.tr == nil {
		return rankErr
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindDecision, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: q, Aux: k, Err: rankErr,
	})
	if f := rt.flt; f != nil && f.missing+f.lostSub > 0 {
		rt.tr.Collect(trace.Event{
			Kind: trace.KindDegraded, Round: rt.round, Phase: rt.Phase(),
			Node: -1, Value: f.missing, Values: f.orphans,
			Aux: rt.Staleness(), Err: f.missing + f.lostSub,
		})
	}
	return rankErr
}

// TraceAdapt records one applied closed-loop controller action: the
// action code (internal/adapt vocabulary) in Aux and its integer
// argument in Value. It increments Stats.Adapts unconditionally — the
// per-round series column and the "adapts" alert metric are derived
// from the counter, so controller activity stays visible on untraced
// runs — and emits the KindAdapt event only when a collector is
// attached.
func (rt *Runtime) TraceAdapt(action, arg int) {
	rt.stats.Adapts++
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindAdapt, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: arg, Aux: action,
	})
}

// RankErrorOf returns the distance between k and the closest rank the
// reported value occupies in the true (oracle) data; 0 means exact.
// It scans the round's readings once.
func (rt *Runtime) RankErrorOf(k, reported int) int {
	below, equal := 0, 0
	for _, v := range rt.roundReadings() {
		if v < reported {
			below++
		} else if v == reported {
			equal++
		}
	}
	// With equal == 0 the reported value does not exist in the data; it
	// would sit between ranks below and below+1, so the distance to k
	// is at least 1.
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

// TraceRefine records a root-issued refinement/collection request over
// the closed value interval [lo, hi] asking for up to f values per
// direction (f < 0: unbounded). A no-op without a collector.
func (rt *Runtime) TraceRefine(lo, hi, f int) {
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindRefine, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: lo, Aux: hi, Values: f,
	})
}

// Reading returns node's measurement for the current round. The source
// is evaluated once per node per round: the round's first Reading (or
// Oracle, or RankErrorOf) fills the runtime's reading vector, and every
// later call indexes it.
func (rt *Runtime) Reading(node int) int { return rt.roundReadings()[node] }

// roundReadings returns the current round's reading vector, filling it
// on the round's first use. The round stamp makes AdvanceRound
// invalidate it without a hook.
func (rt *Runtime) roundReadings() []int {
	if rt.readRound != rt.round {
		rt.fillReadings()
	}
	return rt.readings
}

// fillReadings is kept out of line so that Reading, the hot path of
// every protocol's merge callback, stays inlinable.
//
//go:noinline
func (rt *Runtime) fillReadings() {
	rt.src.Fill(rt.round, rt.readings)
	rt.readRound = rt.round
}

// ReadingAt returns node's measurement at an explicit round, straight
// from the source (uncached).
func (rt *Runtime) ReadingAt(node, round int) int { return rt.src.Value(node, round) }

// Universe returns the closed integer range of possible measurements.
func (rt *Runtime) Universe() (lo, hi int) { return rt.src.Universe() }

// Oracle returns the exact rank-k value (1-based) over the current
// round's measurements, computed centrally with no energy cost. It is
// the ground truth the protocols are verified against.
func (rt *Runtime) Oracle(k int) int {
	if rt.oracle == nil {
		rt.oracle = make([]int, rt.N())
	}
	// Select reorders the buffer in place, so every call refills it.
	copy(rt.oracle, rt.roundReadings())
	return mathx.Select(rt.oracle, k)
}

// emitSend records one transmission (and, for multi-frame payloads, its
// fragmentation) in the flight recorder. Callers check rt.perHop != nil.
func (rt *Runtime) emitSend(sender, receiver int, cast trace.Cast, bits, wire, frames, values int) {
	rt.perHop.Collect(trace.Event{
		Kind: trace.KindSend, Round: rt.round, Phase: rt.Phase(),
		Node: sender, Peer: receiver, Cast: cast,
		Bits: bits, Wire: wire, Frames: frames, Values: values,
	})
	if frames > 1 {
		rt.perHop.Collect(trace.Event{
			Kind: trace.KindFragment, Round: rt.round, Phase: rt.Phase(),
			Node: sender, Peer: receiver, Cast: cast,
			Bits: bits, Wire: wire, Frames: frames,
		})
	}
}

// Convergecast runs one bottom-up phase over the speakers' root paths.
// speakers lists the sensors that may have something to say, in any
// order and possibly repeated; the walk visits exactly them and their
// ancestors, in post-order, and invokes merge for each visited sensor
// with the payloads that actually arrived from its children, in
// delivery order. A nil return means the node stays silent (no
// transmission, no energy). Every other payload travels one hop toward
// its parent through hop, with or without faults attached, and may be
// lost on the way. The payloads that reach the root are returned.
// Passing Topology().PostOrder visits every sensor; a ranged primitive
// passes Holders(lo, hi).
//
// The contract: a sensor left out of the walk receives no payload, and
// merge must return nil and have no side effect for it, exactly as the
// full walk would have observed — merge speaks only for a listed
// speaker or a node with children's payloads. Loss draws happen in hop
// for non-nil payloads only, so the draws, the per-hop events, the
// ledger and Stats match the full walk's.
//
// Ownership: children is valid only during the merge call, and each
// child payload belongs to the merging node once handed over, so merge
// may recycle it. The returned slice is valid until the next
// Convergecast call on this runtime. merge must not start another
// Convergecast or a Broadcast on the same runtime.
//
// The walk marks each speaker's root path in a runtime-owned mask,
// stopping at a node already marked, then runs the loop body for the
// marked nodes of PostOrder only, clearing each mark as it goes —
// before the crash check, so the mask is all-false again after every
// call. The inbox is one stack of delivered payloads, each tagged with
// its receiver and reused across calls. Because PostOrder visits every
// subtree as one contiguous run ending in its root, and a marked
// subtree's marked nodes are one such run too, the payloads addressed
// to u are exactly the top entries tagged u when u is reached.
func (rt *Runtime) Convergecast(speakers []int, merge func(node int, children []Payload) Payload) []Payload {
	rt.stats.Convergecasts++
	marked, parentOf := rt.flags, rt.top.Parent
	for _, s := range speakers {
		for u := s; u != -1 && !marked[u]; u = parentOf[u] {
			marked[u] = true
		}
	}
	// Every entry is popped by its receiver, so the stack starts empty.
	rt.atRoot = rt.atRoot[:0]
	for _, u := range rt.top.PostOrder {
		if !marked[u] {
			continue
		}
		marked[u] = false
		base := len(rt.inbox)
		for base > 0 && rt.inboxTo[base-1] == u {
			base--
		}
		if rt.flt != nil && rt.crashedNode(u) {
			// A crashed sensor neither merges nor transmits; whatever
			// its subtree delivered dies with it.
			rt.popInbox(base)
			continue
		}
		p := merge(u, rt.inbox[base:])
		rt.popInbox(base)
		if p == nil {
			continue
		}
		if parent := parentOf[u]; rt.hop(u, parent, p) {
			rt.deliver(parent, p)
		}
	}
	return rt.atRoot
}

// Holders returns the sensors whose current reading lies in the closed
// range [lo, hi], ascending: the speakers of a ranged convergecast. An
// empty range (lo > hi) holds none. The slice is runtime-owned scratch,
// valid until the next Holders call.
func (rt *Runtime) Holders(lo, hi int) []int {
	if rt.allHolders {
		return rt.top.PostOrder
	}
	if rt.holders == nil {
		// Sized once for the worst case, so no call grows it.
		rt.holders = make([]int, 0, rt.N())
	}
	rt.holders = rt.holders[:0]
	for u, v := range rt.roundReadings() {
		if v >= lo && v <= hi {
			rt.holders = append(rt.holders, u)
		}
	}
	return rt.holders
}

// popInbox drops the inbox entries from base up, clearing their slots
// so payloads dropped with a crashed node are not kept reachable.
func (rt *Runtime) popInbox(base int) {
	clear(rt.inbox[base:])
	rt.inbox = rt.inbox[:base]
	rt.inboxTo = rt.inboxTo[:base]
}

// deliver hands a payload that arrived at parent (-1: the root) to the
// convergecast inbox.
func (rt *Runtime) deliver(parent int, p Payload) {
	if parent == -1 {
		rt.atRoot = append(rt.atRoot, p)
		return
	}
	rt.inbox = append(rt.inbox, p)
	rt.inboxTo = append(rt.inboxTo, parent)
}

// hop carries one convergecast payload from u to parent and reports
// whether it arrived. The sender pays for every attempt; a virtual
// sender's intra-node hop is free and radio-silent but still lossy.
// Faults add detach, down links, ARQ with ACKs, and the bookkeeping of
// an exhausted hop for dead-parent detection and the rank-error bound.
//
// The receiver-charge rule: without faults both ends pay before the
// loss draw (the paper's radio model, §5.1), so the receiver of a
// payload lost to iid loss still pays. With faults the receiver pays
// only for the attempt it receives: an attempt swallowed by loss or a
// down link charges it nothing, a delivery charges it once.
func (rt *Runtime) hop(u, parent int, p Payload) bool {
	f := rt.flt
	if rt.top.IsVirtual(u) {
		if f != nil && f.inj.Down(parent) {
			return false
		}
		if rt.loss > 0 && rt.rng.Float64() < rt.loss {
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostUp++
			if f != nil && f.reach[u] {
				f.lostSub += rt.subtreeSize(u)
			}
			return false
		}
		return true
	}
	if f != nil && f.detached[u] {
		// The node knows its parent is gone and holds its traffic until
		// repair: no transmission, no charge.
		return false
	}

	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	values := 0
	if vc, ok := p.(ValueCarrier); ok {
		values = vc.ValueCount()
	}
	down := f != nil && rt.linkDown(u)
	attempts := 1
	if f != nil && f.arq.Enabled {
		attempts += f.arq.MaxRetries
	}
	rho := rt.uplinkRange(u)
	delivered := false
	for a := 0; a < attempts; a++ {
		rt.ledger.ChargeSend(u, wire, rho)
		if a == 0 {
			if f == nil {
				// Without faults the receiver pays before the loss draw
				// (see the receiver-charge rule above).
				rt.ledger.ChargeRecv(parent, wire)
			}
			rt.account(wire, frames, values)
			if rt.perHop != nil {
				rt.emitSend(u, parent, trace.Unicast, bits, wire, frames, values)
			}
		} else {
			rt.stats.Retries++
			rt.accountControl(wire, frames)
			if rt.perHop != nil {
				rt.perHop.Collect(trace.Event{
					Kind: trace.KindRetry, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: parent, Cast: trace.Unicast,
					Bits: bits, Wire: wire, Frames: frames, Aux: a,
				})
			}
		}
		if down {
			// A burst-bad link or dead peer swallows every attempt this
			// round; recovery needs the cross-round timeout.
			continue
		}
		if rt.loss > 0 && rt.rng.Float64() < rt.loss {
			continue
		}
		delivered = true
		break
	}
	if !delivered {
		rt.stats.PayloadsLost++
		rt.stats.PayloadsLostUp++
		if f != nil {
			f.failedNow[u] = true
			if f.reach[u] {
				f.lostSub += rt.subtreeSize(u)
			}
		}
		if rt.perHop != nil {
			rt.perHop.Collect(trace.Event{
				Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
				Node: u, Peer: parent, Cast: trace.Unicast,
				Bits: bits, Wire: wire,
			})
		}
		return false
	}
	if f != nil {
		rt.ledger.ChargeRecv(parent, wire)
	}
	if rt.perHop != nil {
		rt.perHop.Collect(trace.Event{
			Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
			Node: parent, Peer: u, Cast: trace.Unicast,
			Bits: bits, Wire: wire,
		})
	}
	if f != nil && f.arq.Enabled {
		// Link-layer ACK: one header-only frame back to the sender,
		// modeled reliable (acks ride the reverse slot of the TDMA
		// schedule).
		ackWire := rt.sizes.HeaderBits
		rt.ledger.ChargeSend(parent, ackWire, rho)
		rt.ledger.ChargeRecv(u, ackWire)
		rt.stats.AckFrames++
		rt.accountControl(ackWire, 1)
		if rt.perHop != nil {
			rt.emitControlFrame(parent, u, ackWire)
		}
	}
	return true
}

// Broadcast floods p from the root to every sensor: the root transmits
// once (free), every sensor receives it from its parent, and every
// relay (Topology.Relay: a sensor with a non-virtual child) retransmits
// it once. Virtual nodes share their host's radio: they neither pay a
// reception nor retransmit. Every transmission of a flood is alike, so
// the traffic statistics book them with one call.
//
// Which path books the flood rests on the runtime's own state. With no
// faults attached, no per-hop collector and nominal-range charging,
// nothing can differ per node, so the ledger charges the whole flood in
// one pass in node-index order (energy.Ledger.ChargeFlood). Each node's
// consumption is its own accumulator and the pass charges a node's
// reception before its send, as the walk does, so every ledger value
// and statistic is bit-identical to the walk's. Otherwise the flood
// walks the tree top-down: faults decide reach and drops per hop, a
// per-hop collector records each reception and relay in walk order, and
// distance charging prices each relay's downlink range.
//
// Without faults the flood is reliable and reaches every sensor. With
// faults attached, a node receives it only if its parent both received
// and retransmitted it and its link is up; a node that misses the flood
// starves its subtree.
func (rt *Runtime) Broadcast(p Payload) {
	rt.stats.Broadcasts++
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	vals := 0
	if vc, ok := p.(ValueCarrier); ok {
		vals = vc.ValueCount()
	}
	f := rt.flt
	if f == nil && rt.perHop == nil && !rt.byDist {
		relays := rt.ledger.ChargeFlood(rt.top.VirtualEdge, rt.top.Relay, wire, rt.top.Range)
		rt.accountN(1+relays, wire, frames, vals)
		return
	}
	// Root transmission (free) reaching its children.
	sends := 1
	if rt.perHop != nil {
		rt.emitSend(-1, -1, trace.Broadcast, bits, wire, frames, vals)
	}
	got := rt.flags
	// Top-down order is the reverse of post-order.
	po := rt.top.PostOrder
	for i := len(po) - 1; i >= 0; i-- {
		u := po[i]
		parent := rt.top.Parent[u]
		if rt.top.IsVirtual(u) {
			// Virtual nodes are never parents, so nothing reads their
			// delivery flag.
			continue
		}
		if parent != -1 && !got[parent] || f != nil && f.inj.Down(u) {
			// A starved subtree or a crashed radio is absence, not
			// loss: no traffic, no events.
			continue
		}
		if f != nil && rt.linkDown(u) {
			// The hop was transmitted and lost.
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostDown++
			if rt.perHop != nil {
				rt.perHop.Collect(trace.Event{
					Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: parent, Cast: trace.Broadcast,
					Bits: bits, Wire: wire,
				})
			}
			continue
		}
		got[u] = true
		rt.ledger.ChargeRecv(u, wire)
		if rt.perHop != nil {
			rt.perHop.Collect(trace.Event{
				Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
				Node: u, Peer: parent, Cast: trace.Broadcast,
				Bits: bits, Wire: wire,
			})
		}
		if rt.top.Relay[u] {
			rt.ledger.ChargeSend(u, wire, rt.downlinkRange(u))
			sends++
			if rt.perHop != nil {
				rt.emitSend(u, -1, trace.Broadcast, bits, wire, frames, vals)
			}
		}
	}
	clear(got)
	rt.accountN(sends, wire, frames, vals)
}

// uplinkRange returns the transmission range a convergecast hop from u
// is charged for: the nominal radio range, or the actual link length
// under distance-based charging.
func (rt *Runtime) uplinkRange(u int) float64 {
	if !rt.byDist {
		return rt.top.Range
	}
	p := rt.top.Parent[u]
	if p == -1 {
		return rt.top.Pos[u].Dist(rt.top.Root)
	}
	return rt.top.Pos[u].Dist(rt.top.Pos[p])
}

// downlinkRange returns the transmission range a broadcast hop from u
// is charged for: the nominal range, or (with distance-based charging)
// the distance to u's farthest non-virtual child, which the single
// wireless transmission must reach.
func (rt *Runtime) downlinkRange(u int) float64 {
	if !rt.byDist {
		return rt.top.Range
	}
	maxD := 0.0
	for _, c := range rt.top.Children[u] {
		if rt.top.IsVirtual(c) {
			continue
		}
		if d := rt.top.Pos[u].Dist(rt.top.Pos[c]); d > maxD {
			maxD = d
		}
	}
	return maxD
}
