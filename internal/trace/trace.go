// Package trace is the simulator's flight recorder: a structured event
// stream covering rounds, per-hop radio traffic (send/receive/drop),
// fragmentation, energy debits, root decisions, and refinement
// requests. The emitting layers (internal/sim, internal/energy,
// internal/protocol) hold a nil-checkable Collector hook, so a disabled
// recorder costs one pointer comparison per potential event and the hot
// path stays allocation-free.
//
// Collectors are pluggable: an unbounded Recorder for tests and the
// invariant oracle, and a JSONL Writer for offline analysis and golden
// traces; the per-round series recorder (internal/series) and the
// health analyzer (internal/telemetry) are collectors too. Multi fans
// one stream out to several collectors. A
// RoundCollector reads only the round-level events, and emitters build
// no per-hop events for it. The invariant-checking oracle that replays
// recorded streams lives in the trace/oracle subpackage.
//
// The package deliberately depends on the standard library only, so
// every simulation layer can import it without cycles.
package trace

import "fmt"

// Kind classifies an event.
type Kind uint8

// The event kinds, in rough lifecycle order.
const (
	// KindRoundStart opens a round (emitted when a collector attaches
	// and after every round advance).
	KindRoundStart Kind = iota
	// KindRoundEnd closes a round (emitted on round advance).
	KindRoundEnd
	// KindSend is one radio transmission: Node transmits Bits of
	// payload (Wire bits with framing, in Frames frames, carrying
	// Values raw measurements) to Peer. Broadcast sends have no single
	// peer (Peer = -1).
	KindSend
	// KindReceive is the matching reception at Node from Peer.
	KindReceive
	// KindDrop is a convergecast payload lost in flight after the
	// sender (Node) paid for it; Peer never hears it.
	KindDrop
	// KindFragment marks a transmission whose payload needed more than
	// one link-layer frame (Frames > 1).
	KindFragment
	// KindEnergy is one ledger debit: Node pays Joules for a send
	// (Aux = EnergySend) or a reception (Aux = EnergyRecv) of Wire bits.
	KindEnergy
	// KindDecision is the root's reported quantile for the round:
	// Value is the answer, Aux the queried rank k.
	KindDecision
	// KindRefine is a root-issued refinement/collection request over
	// the value interval [Value, Aux], asking for up to Values values
	// per direction (Values < 0: unbounded).
	KindRefine
	// KindRetry is one ARQ retransmission of an unacknowledged hop:
	// Node re-sends Bits of payload (Wire bits, Frames frames) to Peer,
	// attempt number in Aux (1 = first retransmission).
	KindRetry
	// KindCrash marks a node failure (Aux = 1) or recovery (Aux = 0)
	// taking effect at this round's start.
	KindCrash
	// KindReparent records a routing-tree repair: Node re-attaches to
	// new parent Peer, leaving old parent Aux (-1 = the root).
	KindReparent
	// KindDegraded tags the round's answer as degraded: Value is the
	// number of unreachable sensors, Values the alive-but-orphaned
	// subset awaiting repair, Aux the staleness (rounds since full
	// coverage), and Err the rank-error bound from the missing
	// measurements.
	KindDegraded
	// KindAdapt records a closed-loop controller action applied to the
	// running protocol: Aux is the action code (internal/adapt), Value
	// its integer argument (switch target index, Ξ scale in percent, or
	// the number of offloaded subtrees for a proactive reroot).
	KindAdapt
)

var kindNames = [...]string{
	KindRoundStart: "round-start",
	KindRoundEnd:   "round-end",
	KindSend:       "send",
	KindReceive:    "recv",
	KindDrop:       "drop",
	KindFragment:   "fragment",
	KindEnergy:     "energy",
	KindDecision:   "decision",
	KindRefine:     "refine",
	KindRetry:      "retry",
	KindCrash:      "crash",
	KindReparent:   "reparent",
	KindDegraded:   "degraded",
	KindAdapt:      "adapt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText renders the kind as its stable string name, so JSONL
// traces stay readable and survive constant renumbering.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Cast distinguishes the two tree traffic patterns.
type Cast uint8

const (
	// Unicast is one convergecast hop (child to parent).
	Unicast Cast = iota
	// Broadcast is the root-to-leaves flood; one transmission reaches
	// every child of the sender.
	Broadcast
	// Ack is a link-layer acknowledgement frame (ARQ); header-only
	// traffic flowing parent to child.
	Ack
)

func (c Cast) String() string {
	switch c {
	case Broadcast:
		return "broadcast"
	case Ack:
		return "ack"
	}
	return "unicast"
}

// MarshalText renders the cast as its string name.
func (c Cast) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a cast name.
func (c *Cast) UnmarshalText(b []byte) error {
	switch string(b) {
	case "unicast":
		*c = Unicast
	case "broadcast":
		*c = Broadcast
	case "ack":
		*c = Ack
	default:
		return fmt.Errorf("trace: unknown cast %q", string(b))
	}
	return nil
}

// Energy-debit operations carried in Event.Aux of KindEnergy events.
const (
	EnergySend = 1
	EnergyRecv = 2
)

// Event is one flight-recorder record. Node -1 is the root (base
// station); Peer -1 means "the root" on unicast hops and "no single
// peer" on broadcasts. Field meaning varies by Kind (see the Kind
// constants); unused fields are zero and omitted from JSON.
type Event struct {
	Kind   Kind    `json:"kind"`
	Round  int     `json:"round"`
	Phase  string  `json:"phase,omitempty"`
	Node   int     `json:"node"`
	Peer   int     `json:"peer,omitempty"`
	Cast   Cast    `json:"cast,omitempty"`
	Bits   int     `json:"bits,omitempty"`   // logical payload bits
	Wire   int     `json:"wire,omitempty"`   // bits on the air, framing included
	Frames int     `json:"frames,omitempty"` // link-layer frames
	Values int     `json:"values,omitempty"` // raw measurements carried / requested
	Joules float64 `json:"joules,omitempty"` // energy debit
	Value  int     `json:"value,omitempty"`  // decision answer / interval low
	Aux    int     `json:"aux,omitempty"`    // rank k / interval high / energy op
	Err    int     `json:"err,omitempty"`    // decision absolute rank error
}

// Collector consumes the event stream. Implementations are invoked
// synchronously from the simulation hot path and must not retain e
// beyond the call unless they copy it (Event is a value type, so plain
// assignment copies). A nil Collector hook means tracing is disabled.
type Collector interface {
	Collect(e Event)
}

// RoundCollector is a Collector that reads only round-level events:
// it ignores every per-hop kind (send, receive, drop, fragment, energy,
// retry), so an emitter may skip building them. Emitters check for it
// once, when the collector attaches. A Multi of several collectors is
// never a RoundCollector, so a full collector in a fan-out still sees
// every event.
type RoundCollector interface {
	Collector
	// SkipsHops marks the collector; it is never called.
	SkipsHops()
}

// multi fans events out to several collectors in order.
type multi []Collector

func (m multi) Collect(e Event) {
	for _, c := range m {
		c.Collect(e)
	}
}

// Multi returns a collector forwarding every event to each of cs in
// order, skipping nils. With zero or one effective collectors it
// returns nil or that collector unwrapped.
func Multi(cs ...Collector) Collector {
	var eff multi
	for _, c := range cs {
		if c != nil {
			eff = append(eff, c)
		}
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	default:
		return eff
	}
}
