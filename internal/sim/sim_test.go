package sim_test

import (
	"math"
	"sort"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// testPayload is a minimal payload carrying a value list for tests.
type testPayload struct {
	bits int
	vals []int
}

func (p *testPayload) Bits() int       { return p.bits }
func (p *testPayload) ValueCount() int { return len(p.vals) }

// chainSeries is the canonical 3-node chain fixture: readings 10, 20,
// 30 that never change, laid out by simtest.ChainRuntime as
// root <- 0 <- 1 <- 2.
var chainSeries = [][]int{{10}, {20}, {30}}

func TestNewValidation(t *testing.T) {
	pos := []wsn.Point{{X: 10}}
	top, _ := wsn.BuildTree(pos, wsn.Point{}, 12)
	tr, _ := data.NewTrace([][]int{{1}})
	twoTr, _ := data.NewTrace([][]int{{1}, {2}})

	cases := []struct {
		name string
		cfg  sim.Config
	}{
		{"nil topology", sim.Config{Source: tr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()}},
		{"nil source", sim.Config{Topology: top, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()}},
		{"node mismatch", sim.Config{Topology: top, Source: twoTr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()}},
		{"bad sizes", sim.Config{Topology: top, Source: tr, Energy: energy.DefaultParams()}},
		{"bad energy", sim.Config{Topology: top, Source: tr, Sizes: msg.DefaultSizes()}},
		{"bad loss", sim.Config{Topology: top, Source: tr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams(), LossProb: 1.5}},
	}
	for _, c := range cases {
		if _, err := sim.New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestConvergecastDeliveryAndEnergy(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	// Leaf (2) starts a payload; each node appends its reading.
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		vals := []int{rt.Reading(n)}
		for _, c := range children {
			vals = append(vals, c.(*testPayload).vals...)
		}
		return &testPayload{bits: 16 * len(vals), vals: vals}
	})
	if len(atRoot) != 1 {
		t.Fatalf("root received %d payloads", len(atRoot))
	}
	got := atRoot[0].(*testPayload).vals
	sort.Ints(got)
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("root values = %v", got)
	}

	// Energy: node 2 sends 16 bits (+1 header), node 1 receives that and
	// sends 32 bits, node 0 receives and sends 48 bits; the root's
	// reception is free.
	sz := rt.Sizes()
	ep := rt.Ledger().Params()
	w16 := sz.WireBits(16)
	w32 := sz.WireBits(32)
	w48 := sz.WireBits(48)
	want2 := ep.SendCost(w16, rt.Topology().Range)
	want1 := ep.RecvCost(w16) + ep.SendCost(w32, rt.Topology().Range)
	want0 := ep.RecvCost(w32) + ep.SendCost(w48, rt.Topology().Range)
	for i, want := range []float64{want0, want1, want2} {
		if got := rt.Ledger().Spent(i); math.Abs(got-want) > 1e-15 {
			t.Errorf("node %d spent %v, want %v", i, got, want)
		}
	}
	st := rt.Stats()
	if st.PayloadsSent != 3 || st.ValuesSent != 6 { // 1+2+3 values over hops
		t.Errorf("stats = %+v", st)
	}
}

func TestConvergecastSilence(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	atRoot := rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload { return nil })
	if len(atRoot) != 0 {
		t.Fatal("silent convergecast delivered payloads")
	}
	if rt.Ledger().TotalSpent() != 0 {
		t.Fatal("silence cost energy")
	}
	if rt.Stats().Convergecasts != 1 {
		t.Fatal("phase not counted")
	}
}

func TestBroadcastEnergyAndOrder(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	rec := trace.NewRecorder()
	rt.SetTrace(rec)
	rt.Broadcast(&testPayload{bits: 16})
	var order []int
	for _, e := range rec.Events() {
		if e.Kind == trace.KindReceive {
			order = append(order, e.Node)
		}
	}
	// Top-down: parents before children.
	pos := map[int]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 3 || pos[0] > pos[1] || pos[1] > pos[2] {
		t.Fatalf("reception order = %v", order)
	}
	sz := rt.Sizes()
	ep := rt.Ledger().Params()
	w := sz.WireBits(16)
	// Nodes 0 and 1 have children: recv + send. Node 2 is a leaf: recv.
	for i, want := range []float64{
		ep.RecvCost(w) + ep.SendCost(w, rt.Topology().Range),
		ep.RecvCost(w) + ep.SendCost(w, rt.Topology().Range),
		ep.RecvCost(w),
	} {
		if got := rt.Ledger().Spent(i); math.Abs(got-want) > 1e-15 {
			t.Errorf("node %d spent %v, want %v", i, got, want)
		}
	}
	if rt.Stats().Broadcasts != 1 {
		t.Error("broadcast not counted")
	}
	// 3 transmissions: root, node 0, node 1.
	if rt.Stats().PayloadsSent != 3 {
		t.Errorf("PayloadsSent = %d, want 3", rt.Stats().PayloadsSent)
	}
}

func TestLossInjection(t *testing.T) {
	// With 90% loss on a 3-hop chain, the root almost never hears the
	// leaf; with 0% it always does.
	lossy := simtest.ChainRuntime(t, chainSeries, 0.9, 1)
	lost := 0
	for trial := 0; trial < 50; trial++ {
		atRoot := lossy.Convergecast(lossy.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
			return &testPayload{bits: 16}
		})
		if len(atRoot) == 0 {
			lost++
		}
	}
	if lost < 30 {
		t.Errorf("only %d/50 convergecasts fully lost at 90%% loss", lost)
	}
	if lossy.Stats().PayloadsLost == 0 {
		t.Error("no losses recorded")
	}
	clean := simtest.ChainRuntime(t, chainSeries, 0, 1)
	atRoot := clean.Convergecast(clean.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		return &testPayload{bits: 16}
	})
	if len(atRoot) != 1 || clean.Stats().PayloadsLost != 0 {
		t.Error("loss-free run dropped payloads")
	}
}

func TestOracleAndRounds(t *testing.T) {
	rt := simtest.ChainRuntime(t, [][]int{{5, 50}, {1, 10}, {9, 90}}, 0, 1)
	if rt.Oracle(1) != 1 || rt.Oracle(2) != 5 || rt.Oracle(3) != 9 {
		t.Error("oracle wrong at round 0")
	}
	rt.AdvanceRound()
	if rt.Round() != 1 {
		t.Error("round did not advance")
	}
	if rt.Oracle(2) != 50 {
		t.Errorf("oracle at round 1 = %d", rt.Oracle(2))
	}
	if rt.Reading(0) != 50 || rt.ReadingAt(0, 0) != 5 {
		t.Error("readings wrong")
	}
}

func TestPhaseAccounting(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	rt.SetPhase(sim.PhaseValidation)
	rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		return &testPayload{bits: 16}
	})
	rt.SetPhase(sim.PhaseFilter)
	rt.Broadcast(&testPayload{bits: 16})

	st := rt.Stats()
	val := st.Phase(sim.PhaseValidation)
	fil := st.Phase(sim.PhaseFilter)
	if val.Payloads != 3 { // three convergecast hops
		t.Errorf("validation payloads = %d, want 3", val.Payloads)
	}
	if fil.Payloads != 3 { // root + two forwarding nodes
		t.Errorf("filter payloads = %d, want 3", fil.Payloads)
	}
	if val.Bits+fil.Bits != st.BitsSent {
		t.Errorf("phase bits %d+%d != total %d", val.Bits, fil.Bits, st.BitsSent)
	}
	if rt.Phase() != sim.PhaseFilter {
		t.Errorf("current phase = %q", rt.Phase())
	}
}

func TestPhaseDefaultsToOther(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	if rt.Phase() != sim.PhaseOther {
		t.Errorf("unlabeled phase = %q", rt.Phase())
	}
	rt.Broadcast(&testPayload{bits: 16})
	st := rt.Stats()
	if other := st.Phase(sim.PhaseOther); other.Bits == 0 || other.Bits != st.BitsSent {
		t.Errorf("unlabeled traffic: 'other' booked %d of %d bits", other.Bits, st.BitsSent)
	}
}

// TestStatsSnapshotsAreIndependent requires Stats to return a value: a
// snapshot taken before more traffic keeps its per-phase tallies, and
// the later snapshot counts the new traffic.
func TestStatsSnapshotsAreIndependent(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	rt.SetPhase(sim.PhaseValidation)
	rt.Broadcast(&testPayload{bits: 16})
	first := rt.Stats()
	once := first.Phase(sim.PhaseValidation)
	rt.Broadcast(&testPayload{bits: 16})
	second := rt.Stats()
	if got := first.Phase(sim.PhaseValidation); got != once {
		t.Errorf("first snapshot changed after more traffic: %+v, was %+v", got, once)
	}
	if got := second.Phase(sim.PhaseValidation); got.Payloads != 2*once.Payloads || got.Bits != 2*once.Bits {
		t.Errorf("second snapshot %+v, want twice %+v", got, once)
	}
}

func TestVirtualNodesAreFree(t *testing.T) {
	// Chain root <- 0 <- 1 <- 2 expanded with one virtual child each.
	pos := []wsn.Point{{X: 10}, {X: 20}, {X: 30}}
	top, err := wsn.BuildTree(pos, wsn.Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := wsn.ExpandVirtual(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := data.NewTrace([][]int{{10}, {20}, {30}, {11}, {21}, {31}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.New(sim.Config{Topology: ex, Source: tr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	// Every node (virtual included) transmits in the convergecast; only
	// the three radio hops cost energy and appear in the statistics.
	rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
		return &testPayload{bits: 16}
	})
	if got := rt.Stats().PayloadsSent; got != 3 {
		t.Errorf("radio payloads = %d, want 3 (virtual hops are free)", got)
	}
	for i := 3; i < 6; i++ {
		if rt.Ledger().Spent(i) != 0 {
			t.Errorf("virtual node %d charged %v", i, rt.Ledger().Spent(i))
		}
	}
	// Broadcast: virtual nodes neither receive nor retransmit.
	rt.Broadcast(&testPayload{bits: 16})
	// Radio transmissions: root + nodes 0 and 1 (node 2's only child is
	// virtual).
	if got := rt.Stats().PayloadsSent; got != 3+3 {
		t.Errorf("broadcast payloads = %d, want 3", got-3)
	}
}

// hopRound is one round of a single lossy hop on the chain fixture:
// the leaf (2) sends to node 1, everyone else stays silent.
type hopRound struct {
	attempts int     // transmissions of the leaf, retries included
	arrived  bool    // node 1 merged the payload
	recvs    int     // reception debits of node 1
	joules   float64 // energy node 1 paid for them
}

// runHop drives rounds single-hop rounds on rt, reading each round's
// attempts and receiver debits off a flight recorder.
func runHop(t *testing.T, rt *sim.Runtime, rounds int) []hopRound {
	t.Helper()
	rec := trace.NewRecorder()
	rt.SetTrace(rec)
	out := make([]hopRound, rounds)
	for r := range out {
		from := rec.Len()
		h := &out[r]
		rt.Convergecast(rt.Topology().PostOrder, func(n int, children []sim.Payload) sim.Payload {
			switch n {
			case 2:
				return &testPayload{bits: 16}
			case 1:
				h.arrived = len(children) > 0
			}
			return nil
		})
		for _, e := range rec.Events()[from:] {
			switch {
			case e.Node == 2 && (e.Kind == trace.KindSend || e.Kind == trace.KindRetry):
				h.attempts++
			case e.Node == 1 && e.Kind == trace.KindEnergy && e.Aux == trace.EnergyRecv:
				h.recvs++
				h.joules += e.Joules
			}
		}
		rt.AdvanceRound()
	}
	return out
}

// TestReceiverChargeRule pins which end of a lossy hop pays for it.
// Without faults both ends pay before the loss draw (the paper's radio
// model), so the receiver of a dropped payload is still charged its
// reception. With faults attached, the receiver pays only for the
// attempt it receives: no attempt swallowed by iid loss or a down link
// charges it, and a delivered payload charges it exactly once.
func TestReceiverChargeRule(t *testing.T) {
	wire := msg.DefaultSizes().WireBits(16)
	recvCost := energy.DefaultParams().RecvCost(wire)

	dropped := 0
	for r, h := range runHop(t, simtest.ChainRuntime(t, chainSeries, 0.5, 3), 40) {
		if h.attempts != 1 || h.recvs != 1 || math.Abs(h.joules-recvCost) > 1e-18 {
			t.Fatalf("fault-free round %d: %+v, want one attempt and one reception of %v J", r, h, recvCost)
		}
		if !h.arrived {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("fault-free fixture dropped no payload")
	}

	for _, c := range []struct {
		name, plan string
		loss       float64
	}{
		{"iid loss under ARQ", "", 0.7},
		{"down link", "burst(p=1,len=1000):n2", 0},
	} {
		rt := simtest.ChainRuntime(t, chainSeries, c.loss, 3)
		plan, err := fault.Parse(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetFaults(plan, 3, sim.DefaultARQ()); err != nil {
			t.Fatal(err)
		}
		swallowed, retried := 0, 0
		for r, h := range runHop(t, rt, 40) {
			want := 0
			if h.arrived {
				want = 1
			}
			if h.recvs != want || math.Abs(h.joules-float64(want)*recvCost) > 1e-18 {
				t.Fatalf("%s round %d: %+v, want %d reception(s)", c.name, r, h, want)
			}
			if h.attempts > 0 && !h.arrived {
				swallowed++
			}
			if h.attempts > 1 && h.arrived {
				retried++
			}
		}
		if swallowed == 0 || (c.loss > 0 && retried == 0) {
			t.Fatalf("%s: fixture too tame: %d hops swallowed, %d delivered after a retry", c.name, swallowed, retried)
		}
	}
}
