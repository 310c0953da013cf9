package scenario

import (
	"context"
	"testing"

	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

// collectorProbe wraps a protocol and checks, every time the driver
// hands it the runtime, that the collector attached there reads only
// round-level events.
type collectorProbe struct {
	protocol.Algorithm
	t     *testing.T
	calls *int
}

func (p collectorProbe) check(rt *sim.Runtime) {
	*p.calls++
	c := rt.Trace()
	if c == nil {
		p.t.Fatalf("%s: no collector attached; want the series ingester", p.Name())
	}
	if _, ok := c.(trace.RoundCollector); !ok {
		p.t.Fatalf("%s: attached collector %T builds per-hop events; a live scenario run wants only round-level collectors", p.Name(), c)
	}
}

func (p collectorProbe) Init(rt *sim.Runtime, k int) (int, error) {
	p.check(rt)
	return p.Algorithm.Init(rt, k)
}

func (p collectorProbe) Step(rt *sim.Runtime) (int, error) {
	p.check(rt)
	return p.Algorithm.Step(rt)
}

// TestLiveRunAttachesRoundCollectorsOnly pins what a live scenario run
// attaches to each runtime: the recorder reads verdicts from the
// driver, not from the event stream, so the only collector is the
// engine's round-level series ingester and no per-hop event is built.
// The probed run must still produce the unprobed outcome.
func TestLiveRunAttachesRoundCollectorsOnly(t *testing.T) {
	s, err := Parse(testScenarioSrc + "slo rank\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	algs, err := s.Factories()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for i, a := range algs {
		newAlg := a.New
		algs[i].New = func() protocol.Algorithm {
			return collectorProbe{Algorithm: newAlg(), t: t, calls: &calls}
		}
	}
	probed, err := record(context.Background(), s, algs, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if want := s.Runs * len(s.Algorithms) * s.Rounds; calls != want {
		t.Fatalf("probe saw %d protocol calls, want %d", calls, want)
	}
	live, err := Run(context.Background(), s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if probed.Hash() != live.Hash() {
		t.Fatalf("probed outcome %s differs from the live outcome %s", probed.Hash(), live.Hash())
	}
}
