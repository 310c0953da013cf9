package sim

// Equivalence and allocation tests for the convergecast inbox stack.
// naiveConvergecast below is the per-node inbox the stack replaced:
// one freshly allocated [][]Payload per call, appended to per parent.
// Twin runtimes, one driven by each, must call merge with identical
// (node, children) sequences — child order included — and end every
// round with identical statistics.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

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
			if rt.hopWithFaults(u, parent, p) {
				if parent == -1 {
					atRoot = append(atRoot, p)
				} else {
					inbox[parent] = append(inbox[parent], p)
				}
			}
			continue
		}
		rt.charge(u, parent, p)
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

// senderPayload names the node that sent it; its size grows with the
// number of children merged so loss and framing see varied payloads.
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
		return &senderPayload{from: node, bits: 16 + 8*len(children)}
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
// and — when faults is non-empty — a crash/burst plan under ARQ.
func randomRuntime(t *testing.T, seed int64, virtual bool, faults string) *Runtime {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(40)
	top, err := wsn.BuildConnectedTree(n, 120, 35, rng, 200)
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
		LossProb: 0.15, Seed: seed,
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

func TestConvergecastInboxMatchesNaive(t *testing.T) {
	lost, repairs := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		virtual := seed%2 == 0
		faults := ""
		if seed%3 != 0 {
			// Node ids stay below the smallest deployment (20 sensors).
			faults = fmt.Sprintf("crash@2-9:n%d; crash@4-6:n%d; burst(p=0.4,len=2):n%d",
				1+seed%7, 8+seed%5, 13+seed%6)
		}
		stack := randomRuntime(t, seed, virtual, faults)
		naive := randomRuntime(t, seed, virtual, faults)
		for round := 0; round < 14; round++ {
			for cast := 0; cast < 2; cast++ {
				var gotLog, wantLog mergeLog
				got := senders(stack.Convergecast(gotLog.merge(round + cast)))
				want := senders(naive.naiveConvergecast(wantLog.merge(round + cast)))
				if !reflect.DeepEqual(gotLog, wantLog) {
					t.Fatalf("seed %d round %d cast %d: merge calls differ\n got  %v\n want %v", seed, round, cast, gotLog, wantLog)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d cast %d: root arrivals %v, want %v", seed, round, cast, got, want)
				}
			}
			if !reflect.DeepEqual(stack.Stats(), naive.Stats()) {
				t.Fatalf("seed %d round %d: stats differ\n got  %+v\n want %+v", seed, round, stack.Stats(), naive.Stats())
			}
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
	}
	// The comparison only means something if loss, crashes and tree
	// repair all occurred.
	if lost == 0 || repairs == 0 {
		t.Errorf("fixture too tame: %d payloads lost, %d repairs", lost, repairs)
	}
}

// TestConvergecastWarmAllocatesNothing: once the inbox stack has grown
// to the tree's needs, a convergecast whose merge reuses its payload
// allocates nothing.
func TestConvergecastWarmAllocatesNothing(t *testing.T) {
	rt := benchRuntime(t)
	p := &senderPayload{bits: 32}
	merge := func(int, []Payload) Payload { return p }
	rt.Convergecast(merge)
	if allocs := testing.AllocsPerRun(100, func() { rt.Convergecast(merge) }); allocs != 0 {
		t.Errorf("warm Convergecast allocates %v objects per call, want 0", allocs)
	}
}
