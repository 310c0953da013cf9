package sim

// Equivalence and allocation tests for the convergecast inbox stack,
// the speaker-path walk and the one radio path. naiveConvergecast below
// is the per-node inbox the stack replaced: every sensor visited, one
// freshly allocated [][]Payload per call, appended to per parent, with
// the fault-free hop written out in full (refCharge plus the loss draw)
// as the reference for hop. naiveBroadcast is the reliable flood
// Broadcast's walk replaced, and TestFloodMatchesWalk holds the
// fault-free flood's one-pass charge to that walk. Twin runtimes, one
// driven by each, must call merge with identical sequences — child
// order included — and end every round with identical statistics,
// event streams and energy ledgers.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// refCharge is the fault-free hop's charge: the sender pays the
// framing-inclusive transmission and the receiver its reception, both
// before the loss draw. A negative receiver is the root (free). Hops
// from virtual senders never touch the radio and are free.
func (rt *Runtime) refCharge(sender, receiver int, p Payload) {
	if rt.top.IsVirtual(sender) {
		return
	}
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	rt.ledger.ChargeSend(sender, wire, rt.uplinkRange(sender))
	rt.ledger.ChargeRecv(receiver, wire)
	values := 0
	if vc, ok := p.(ValueCarrier); ok {
		values = vc.ValueCount()
	}
	rt.account(wire, frames, values)
	if rt.tr != nil {
		rt.emitSend(sender, receiver, trace.Unicast, bits, wire, frames, values)
	}
}

// naiveConvergecast is the reference implementation: a per-node inbox
// allocated on every call.
func (rt *Runtime) naiveConvergecast(merge func(node int, children []Payload) Payload) []Payload {
	rt.stats.Convergecasts++
	inbox := make([][]Payload, rt.N())
	var atRoot []Payload
	for _, u := range rt.top.PostOrder {
		if rt.flt != nil && rt.crashedNode(u) {
			inbox[u] = nil
			continue
		}
		p := merge(u, inbox[u])
		inbox[u] = nil
		if p == nil {
			continue
		}
		parent := rt.top.Parent[u]
		if rt.flt != nil {
			if rt.hop(u, parent, p) {
				if parent == -1 {
					atRoot = append(atRoot, p)
				} else {
					inbox[parent] = append(inbox[parent], p)
				}
			}
			continue
		}
		rt.refCharge(u, parent, p)
		radio := rt.tr != nil && !rt.top.IsVirtual(u)
		if rt.loss > 0 && rt.rng.Float64() < rt.loss {
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostUp++
			if radio {
				rt.tr.Collect(trace.Event{
					Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: parent, Cast: trace.Unicast,
					Bits: p.Bits(), Wire: rt.sizes.WireBits(p.Bits()),
				})
			}
			continue
		}
		if radio {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
				Node: parent, Peer: u, Cast: trace.Unicast,
				Bits: p.Bits(), Wire: rt.sizes.WireBits(p.Bits()),
			})
		}
		if parent == -1 {
			atRoot = append(atRoot, p)
		} else {
			inbox[parent] = append(inbox[parent], p)
		}
	}
	return atRoot
}

// naiveBroadcast is the reference fault-free flood: every sensor is
// reached, top-down, virtual nodes share their host's radio, and a
// node relays when a scan of its children finds a non-virtual one.
func (rt *Runtime) naiveBroadcast(p Payload) {
	rt.stats.Broadcasts++
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	vals := 0
	if vc, ok := p.(ValueCarrier); ok {
		vals = vc.ValueCount()
	}
	rt.account(wire, frames, vals)
	if rt.tr != nil {
		rt.emitSend(-1, -1, trace.Broadcast, bits, wire, frames, vals)
	}
	for i := len(rt.top.PostOrder) - 1; i >= 0; i-- {
		u := rt.top.PostOrder[i]
		if !rt.top.IsVirtual(u) {
			rt.ledger.ChargeRecv(u, wire)
			if rt.tr != nil {
				rt.tr.Collect(trace.Event{
					Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: rt.top.Parent[u], Cast: trace.Broadcast,
					Bits: bits, Wire: wire,
				})
			}
			relay := false
			for _, c := range rt.top.Children[u] {
				relay = relay || !rt.top.IsVirtual(c)
			}
			if relay {
				rt.ledger.ChargeSend(u, wire, rt.downlinkRange(u))
				rt.account(wire, frames, vals)
				if rt.tr != nil {
					rt.emitSend(u, -1, trace.Broadcast, bits, wire, frames, vals)
				}
			}
		}
	}
}

// senderPayload names the node that sent it; its size grows with the
// number of children merged so loss and framing see varied payloads,
// multi-frame ones included.
type senderPayload struct{ from, bits int }

func (p *senderPayload) Bits() int { return p.bits }

// mergeLog records every merge call as (node, senders of children).
type mergeLog []string

// merge returns a merge function that logs into l and keeps one node
// in five silent per call, varying with salt.
func (l *mergeLog) merge(salt int) func(int, []Payload) Payload {
	return func(node int, children []Payload) Payload {
		from := make([]int, len(children))
		for i, c := range children {
			from[i] = c.(*senderPayload).from
		}
		*l = append(*l, fmt.Sprint(node, from))
		if (node+salt)%5 == 0 {
			return nil
		}
		return &senderPayload{from: node, bits: 16 + 300*len(children)}
	}
}

// rangeMerge returns a merge that obeys the ranged-primitive contract:
// a node speaks only when its reading lies in [lo, hi] or payloads
// arrived from its children. It logs only the calls that speak, the
// ones a full and a selective walk must share.
func (l *mergeLog) rangeMerge(rt *Runtime, lo, hi int) func(int, []Payload) Payload {
	return func(node int, children []Payload) Payload {
		if v := rt.Reading(node); len(children) == 0 && (v < lo || v > hi) {
			return nil
		}
		from := make([]int, len(children))
		for i, c := range children {
			from[i] = c.(*senderPayload).from
		}
		*l = append(*l, fmt.Sprint(node, from))
		return &senderPayload{from: node, bits: 16 + 300*len(children)}
	}
}

func senders(ps []Payload) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.(*senderPayload).from
	}
	return out
}

// randomRuntime builds a seeded random deployment: a connected tree,
// optionally expanded with virtual children, random readings, iid loss,
// and — when faults is non-empty — a crash/burst plan under ARQ. A
// non-nil tr records the event stream from the start.
func randomRuntime(t *testing.T, seed int64, virtual bool, faults string, tr trace.Collector) *Runtime {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(40)
	top, err := wsn.BuildConnectedTree(n, 120, 35, rng, 200, wsn.BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	if virtual {
		if top, err = wsn.ExpandVirtual(top, 2); err != nil {
			t.Fatal(err)
		}
	}
	series := make([][]int, top.N())
	for i := range series {
		series[i] = make([]int, 16)
		for r := range series[i] {
			series[i][r] = rng.Intn(1000)
		}
	}
	src, err := data.NewTrace(series)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Topology: top, Source: src,
		Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams(),
		LossProb: 0.15, Seed: seed, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faults != "" {
		plan, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetFaults(plan, seed, DefaultARQ()); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// sameRadio fails the test unless the twins agree on statistics,
// recorded event streams and energy ledgers.
func sameRadio(t *testing.T, where string, got, want *Runtime, gotTr, wantTr *trace.Recorder) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Fatalf("%s: stats differ\n got  %+v\n want %+v", where, got.Stats(), want.Stats())
	}
	ge, we := gotTr.Events(), wantTr.Events()
	for i := 0; i < len(ge) && i < len(we); i++ {
		if ge[i] != we[i] {
			t.Fatalf("%s: event %d differs\n got  %+v\n want %+v", where, i, ge[i], we[i])
		}
	}
	if len(ge) != len(we) {
		t.Fatalf("%s: %d events, want %d", where, len(ge), len(we))
	}
	if g, w := got.Ledger().Snapshot(), want.Ledger().Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ledgers differ\n got  %v\n want %v", where, g, w)
	}
}

// TestConvergecastInboxMatchesNaive drives twin runtimes through the
// same rounds, one with Convergecast and one with the naive full walk.
// Two casts a round list every sensor (PostOrder) with a merge that
// speaks for most nodes; a third lists only the holders of a random
// closed range, with a merge that speaks for exactly them and their
// relays, and must match the full walk's merges, root arrivals, stats,
// events and ledger — under virtual nodes, loss, crashes and repair.
func TestConvergecastInboxMatchesNaive(t *testing.T) {
	lost, repairs, fragments, ranged := 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		virtual := seed%2 == 0
		faults := ""
		if seed%3 != 0 {
			// Node ids stay below the smallest deployment (20 sensors).
			faults = fmt.Sprintf("crash@2-9:n%d; crash@4-6:n%d; burst(p=0.4,len=2):n%d",
				1+seed%7, 8+seed%5, 13+seed%6)
		}
		stackTr, naiveTr := trace.NewRecorder(), trace.NewRecorder()
		stack := randomRuntime(t, seed, virtual, faults, stackTr)
		naive := randomRuntime(t, seed, virtual, faults, naiveTr)
		for round := 0; round < 14; round++ {
			for cast := 0; cast < 2; cast++ {
				var gotLog, wantLog mergeLog
				got := senders(stack.Convergecast(stack.top.PostOrder, gotLog.merge(round+cast)))
				want := senders(naive.naiveConvergecast(wantLog.merge(round + cast)))
				if !reflect.DeepEqual(gotLog, wantLog) {
					t.Fatalf("seed %d round %d cast %d: merge calls differ\n got  %v\n want %v", seed, round, cast, gotLog, wantLog)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d cast %d: root arrivals %v, want %v", seed, round, cast, got, want)
				}
			}
			// A random closed range, empty about one time in six.
			lo := rng.Intn(1000)
			hi := lo + rng.Intn(300) - 50
			var gotLog, wantLog mergeLog
			got := senders(stack.Convergecast(stack.Holders(lo, hi), gotLog.rangeMerge(stack, lo, hi)))
			want := senders(naive.naiveConvergecast(wantLog.rangeMerge(naive, lo, hi)))
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("seed %d round %d range [%d, %d]: speaking merges differ\n got  %v\n want %v", seed, round, lo, hi, gotLog, wantLog)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d range [%d, %d]: root arrivals %v, want %v", seed, round, lo, hi, got, want)
			}
			ranged += len(got)
			if slices.Contains(stack.flags, true) {
				t.Fatalf("seed %d round %d: visit mask left marked after the walk", seed, round)
			}
			sameRadio(t, fmt.Sprintf("seed %d round %d", seed, round), stack, naive, stackTr, naiveTr)
			stack.AdvanceRound()
			naive.AdvanceRound()
		}
		if len(stack.inbox) != 0 {
			t.Errorf("seed %d: %d payloads left on the inbox stack", seed, len(stack.inbox))
		}
		lost += stack.Stats().PayloadsLost
		if stack.flt != nil {
			repairs += stack.flt.repairs
		}
		for _, e := range stackTr.Events() {
			if e.Kind == trace.KindFragment {
				fragments++
			}
		}
	}
	// The comparison only means something if loss, crashes, tree repair
	// and fragmentation all occurred.
	if lost == 0 || repairs == 0 || fragments == 0 || ranged == 0 {
		t.Errorf("fixture too tame: %d payloads lost, %d repairs, %d fragments, %d ranged root arrivals", lost, repairs, fragments, ranged)
	}
}

// handTree builds a fixed six-sensor tree whose shape the test below
// relies on:
//
//	root ─ 0 ─ 1 ─ 2
//	  │         └─ 3
//	  └─ 4 ─ 5
//
// Node i reads 10·i, so Holders(10a, 10b) is the nodes a..b.
func handTree(t *testing.T) *Runtime {
	t.Helper()
	pos := []wsn.Point{{X: 10}, {X: 20}, {X: 30}, {X: 20, Y: 10}, {Y: 10}, {Y: 20}}
	top, err := wsn.BuildTree(pos, wsn.Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{-1, 0, 1, 1, -1, 4}; !slices.Equal(top.Parent, want) {
		t.Fatalf("hand-built tree has parents %v, want %v", top.Parent, want)
	}
	series := make([][]int, len(pos))
	for i := range series {
		series[i] = []int{10 * i, 10 * i}
	}
	src, err := data.NewTrace(series)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Topology: top, Source: src, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestConvergecastVisitsSpeakerPaths: merge runs for exactly the
// speakers and their ancestors, in post-order; listing PostOrder visits
// every sensor once; and the visit mask is all-false after every call,
// including one where a marked node has crashed.
func TestConvergecastVisitsSpeakerPaths(t *testing.T) {
	rt := handTree(t)
	visits := func(speakers []int) []int {
		var got []int
		rt.Convergecast(speakers, func(node int, children []Payload) Payload {
			got = append(got, node)
			return &senderPayload{from: node, bits: 16}
		})
		if slices.Contains(rt.flags, true) {
			t.Fatalf("speakers %v: visit mask left marked after the walk", speakers)
		}
		return got
	}
	post := rt.Topology().PostOrder
	for _, tc := range []struct {
		speakers, want []int // want as a set; the walk order is post's
	}{
		{nil, nil},
		{[]int{2}, []int{0, 1, 2}},
		{[]int{3, 5}, []int{0, 1, 3, 4, 5}},
		{[]int{0, 0, 4}, []int{0, 4}},
		{post, []int{0, 1, 2, 3, 4, 5}},
	} {
		if got, want := visits(tc.speakers), inPostOrder(post, tc.want); !slices.Equal(got, want) {
			t.Errorf("speakers %v: visited %v, want %v", tc.speakers, got, want)
		}
	}
	for _, tc := range []struct {
		lo, hi        int
		holders, want []int
	}{
		{20, 30, []int{2, 3}, []int{0, 1, 2, 3}},
		{10, 30, []int{1, 2, 3}, []int{0, 1, 2, 3}},
		{31, 39, nil, nil},
		{40, 10, nil, nil}, // empty range
	} {
		holders := rt.Holders(tc.lo, tc.hi)
		if !slices.Equal(holders, tc.holders) {
			t.Errorf("Holders(%d, %d) = %v, want %v", tc.lo, tc.hi, holders, tc.holders)
		}
		if got, want := visits(holders), inPostOrder(post, tc.want); !slices.Equal(got, want) {
			t.Errorf("Holders(%d, %d): visited %v, want %v", tc.lo, tc.hi, got, want)
		}
	}
	plan, err := fault.Parse("crash@0:n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetFaults(plan, 1, DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	// Node 1 is on the path from 2 and crashed: it is marked, skipped
	// without a merge, and its mark cleared all the same.
	if got, want := visits([]int{2}), []int{2, 0}; !slices.Equal(got, want) {
		t.Errorf("crashed relay: visited %v, want %v", got, want)
	}
	// A mark left on node 1 would stop the next path at it, leaving 0
	// unvisited.
	if got, want := visits([]int{3}), []int{3, 0}; !slices.Equal(got, want) {
		t.Errorf("after the crash: visited %v, want %v", got, want)
	}
}

// inPostOrder returns the members of set in post's order.
func inPostOrder(post, set []int) []int {
	var out []int
	for _, u := range post {
		if slices.Contains(set, u) {
			out = append(out, u)
		}
	}
	return out
}

// TestBroadcastMatchesNaive: without faults, Broadcast's walk reaches
// every sensor exactly like the reliable reference flood — the same
// reception order, events, statistics and charges — with and without
// virtual nodes, for single- and multi-frame payloads. The full
// recorders on both twins keep Broadcast on its walk.
func TestBroadcastMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		virtual := seed%2 == 0
		walkTr, naiveTr := trace.NewRecorder(), trace.NewRecorder()
		walk := randomRuntime(t, seed, virtual, "", walkTr)
		naive := randomRuntime(t, seed, virtual, "", naiveTr)
		radios := 0
		for u := 0; u < walk.N(); u++ {
			if !walk.top.IsVirtual(u) {
				radios++
			}
		}
		for round := 0; round < 4; round++ {
			for cast := 0; cast < 3; cast++ {
				p := benchPayload{bits: 40 + 700*cast, values: cast}
				from := len(walkTr.Events())
				walk.Broadcast(p)
				naive.naiveBroadcast(p)
				got := receivers(walkTr.Events()[from:])
				want := receivers(naiveTr.Events()[from:])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d cast %d: reception order differs\n got  %v\n want %v", seed, round, cast, got, want)
				}
				if len(got) != radios {
					t.Fatalf("seed %d round %d cast %d: %d receptions, want one per radio (%d)", seed, round, cast, len(got), radios)
				}
			}
			walk.Broadcast(benchPayload{bits: 24})
			naive.naiveBroadcast(benchPayload{bits: 24})
			sameRadio(t, fmt.Sprintf("seed %d round %d", seed, round), walk, naive, walkTr, naiveTr)
			walk.AdvanceRound()
			naive.AdvanceRound()
		}
	}
}

// receivers returns the receiving node of every reception event, in
// stream order.
func receivers(events []trace.Event) []int {
	var out []int
	for _, e := range events {
		if e.Kind == trace.KindReceive {
			out = append(out, e.Node)
		}
	}
	return out
}

// TestFloodMatchesWalk: an untraced, fault-free runtime books its
// floods in the ledger's one pass, and a twin with a full per-hop
// collector walks them; on the same random trees, with and without
// virtual nodes and distance charging, single-frame, multi-frame and
// 0-bit floods interleaved with lossy convergecasts over several rounds
// must leave both with bit-identical ledgers and identical statistics.
func TestFloodMatchesWalk(t *testing.T) {
	floods := []benchPayload{{bits: 40, values: 1}, {bits: 1500, values: 3}, {bits: 0}}
	for seed := int64(1); seed <= 8; seed++ {
		virtual, byDist := seed%2 == 0, seed%4 >= 2
		pass := randomRuntime(t, seed, virtual, "", nil)
		walkTr := trace.NewRecorder()
		walk := randomRuntime(t, seed, virtual, "", walkTr)
		pass.byDist, walk.byDist = byDist, byDist
		if pass.perHop != nil || walk.perHop == nil {
			t.Fatal("twins not set up as an untraced pass and a traced walk")
		}
		for round := 0; round < 6; round++ {
			for i, p := range floods {
				pass.Broadcast(p)
				walk.Broadcast(p)
				var passLog, walkLog mergeLog
				got := senders(pass.Convergecast(pass.top.PostOrder, passLog.merge(round+i)))
				want := senders(walk.Convergecast(walk.top.PostOrder, walkLog.merge(round+i)))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d flood %d: root arrivals %v, want %v", seed, round, i, got, want)
				}
			}
			where := fmt.Sprintf("seed %d (virtual %v, by distance %v) round %d", seed, virtual, byDist, round)
			if !reflect.DeepEqual(pass.Stats(), walk.Stats()) {
				t.Fatalf("%s: stats differ\n pass %+v\n walk %+v", where, pass.Stats(), walk.Stats())
			}
			g, w := pass.Ledger().Snapshot(), walk.Ledger().Snapshot()
			for u := range w {
				if math.Float64bits(g[u]) != math.Float64bits(w[u]) {
					t.Fatalf("%s: node %d spent %v (%#x), walk %v (%#x)", where, u, g[u], math.Float64bits(g[u]), w[u], math.Float64bits(w[u]))
				}
			}
			pass.AdvanceRound()
			walk.AdvanceRound()
		}
		if pass.Stats().PayloadsLost == 0 || len(receivers(walkTr.Events())) == 0 {
			t.Errorf("seed %d: fixture too tame: %d payloads lost, %d walked receptions", seed, pass.Stats().PayloadsLost, len(receivers(walkTr.Events())))
		}
	}
}

// TestConvergecastWarmAllocatesNothing: once the inbox stack has grown
// to the tree's needs, a convergecast whose merge reuses its payload
// allocates nothing.
func TestConvergecastWarmAllocatesNothing(t *testing.T) {
	rt := benchRuntime(t)
	p := &senderPayload{bits: 32}
	merge := func(int, []Payload) Payload { return p }
	rt.Convergecast(rt.top.PostOrder, merge)
	if allocs := testing.AllocsPerRun(100, func() { rt.Convergecast(rt.top.PostOrder, merge) }); allocs != 0 {
		t.Errorf("warm Convergecast allocates %v objects per call, want 0", allocs)
	}
}

// TestSubtreeSizeWarmAllocatesNothing: the subtree count behind a lost
// hop's coverage bound reuses the runtime's stack, so once it has grown
// to the tree's needs a call allocates nothing, and it still counts
// every sensor under the root's children.
func TestSubtreeSizeWarmAllocatesNothing(t *testing.T) {
	rt := benchRuntime(t)
	total := 0
	for _, c := range rt.top.RootChildren {
		total += rt.subtreeSize(c)
	}
	if total != rt.N() {
		t.Fatalf("subtrees under the root hold %d sensors, want %d", total, rt.N())
	}
	c := rt.top.RootChildren[0]
	if allocs := testing.AllocsPerRun(100, func() { rt.subtreeSize(c) }); allocs != 0 {
		t.Errorf("warm subtreeSize allocates %v objects per call, want 0", allocs)
	}
}
