package wsnq_test

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"wsnq"
)

// knownPhases is the attribution vocabulary: the cost-accounting
// phases of internal/sim, exactly the buckets a report may contain.
var knownPhases = map[string]bool{
	"init": true, "validation": true, "refinement": true,
	"filter": true, "collect": true, "other": true,
}

// TestProfAttributionGolden pins the attribution shape of the golden
// 60-node lossy IQ study (the same cell the golden trace digest runs).
// Exact CPU numbers jitter with the machine, so the assertions are
// structural: one scope, known phases, shares that sum to 100%, and a
// nameable top allocating phase.
func TestProfAttributionGolden(t *testing.T) {
	p := wsnq.NewProf()
	ob := &wsnq.Observer{Prof: p}
	if _, err := wsnq.Run(goldenConfig(), wsnq.IQ, wsnq.WithObserver(ob)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Stats) == 0 {
		t.Fatal("empty attribution report after a 25-round study")
	}
	if rep.TotalCPUSeconds <= 0 || rep.TotalAllocBytes == 0 {
		t.Fatalf("report totals: %.6fs CPU, %d bytes — want both positive",
			rep.TotalCPUSeconds, rep.TotalAllocBytes)
	}
	var cpuSum, allocSum float64
	for _, s := range rep.Stats {
		if s.Scope != "IQ" {
			t.Errorf("bucket scope %q, want IQ only", s.Scope)
		}
		if !knownPhases[s.Phase] {
			t.Errorf("bucket phase %q not in the sim phase vocabulary", s.Phase)
		}
		if s.Switches <= 0 {
			t.Errorf("bucket %s/%s booked %d spans, want > 0", s.Scope, s.Phase, s.Switches)
		}
		cpuSum += s.CPUShare
		allocSum += s.AllocShare
	}
	if math.Abs(cpuSum-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", cpuSum)
	}
	if math.Abs(allocSum-1) > 1e-9 {
		t.Errorf("alloc shares sum to %v, want 1", allocSum)
	}
	top, ok := rep.TopAllocPhase("IQ")
	if !ok || top.Phase == "" {
		t.Fatalf("TopAllocPhase(IQ) = %+v, %v — want a named phase", top, ok)
	}
	t.Logf("IQ top allocating phase: %s (%.1f%% of %d bytes)",
		top.Phase, 100*top.AllocShare, rep.TotalAllocBytes)

	// Same cell under LCLL-S: its slip refining re-descends every round
	// (the refinement storm the alert preset fires on), so refinement
	// must dominate the allocation profile — empirically ~88% of bytes,
	// asserted loosely as "more than half" to absorb topology jitter.
	p2 := wsnq.NewProf()
	if _, err := wsnq.Run(goldenConfig(), wsnq.LCLLS, wsnq.WithObserver(&wsnq.Observer{Prof: p2})); err != nil {
		t.Fatal(err)
	}
	stop, ok := p2.Report().TopAllocPhase("LCLL-S")
	if !ok {
		t.Fatal("no LCLL-S buckets recorded")
	}
	if stop.Phase != "refinement" || stop.AllocShare < 0.5 {
		t.Errorf("LCLL-S top allocating phase = %s (%.1f%%), want refinement dominating under per-round slip descent",
			stop.Phase, 100*stop.AllocShare)
	}
}

// TestProfNamesLCLLSTopAllocPhase is the acceptance check for the
// per-algorithm attribution surface: a profiled LCLL-S study must name
// the phase that allocates the most on its round path, both through
// the API and in the rendered table.
func TestProfNamesLCLLSTopAllocPhase(t *testing.T) {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 120
	cfg.Rounds = 20
	cfg.Runs = 1
	p := wsnq.NewProf()
	if _, err := wsnq.Run(cfg, wsnq.LCLLS, wsnq.WithObserver(&wsnq.Observer{Prof: p})); err != nil {
		t.Fatal(err)
	}
	top, ok := p.Report().TopAllocPhase("LCLL-S")
	if !ok || !knownPhases[top.Phase] || top.AllocBytes == 0 {
		t.Fatalf("TopAllocPhase(LCLL-S) = %+v, %v — want a known phase with bytes", top, ok)
	}
	t.Logf("LCLL-S top allocating phase: %s (%.1f%%)", top.Phase, 100*top.AllocShare)

	var buf bytes.Buffer
	if err := p.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LCLL-S") || !strings.Contains(out, top.Phase) {
		t.Errorf("rendered table misses the scope or its top phase:\n%s", out)
	}
}

// TestProfResetAndReuse checks a recorder survives the Observer
// round-trip: Reset empties it and a second study repopulates it.
func TestProfResetAndReuse(t *testing.T) {
	cfg := goldenConfig()
	cfg.Rounds = 5
	p := wsnq.NewProf()
	if _, err := wsnq.Run(cfg, wsnq.IQ, wsnq.WithObserver(&wsnq.Observer{Prof: p})); err != nil {
		t.Fatal(err)
	}
	if len(p.Report().Stats) == 0 {
		t.Fatal("no buckets after first study")
	}
	p.Reset()
	if got := p.Report(); len(got.Stats) != 0 {
		t.Fatalf("Reset left %d buckets", len(got.Stats))
	}
	if _, err := wsnq.Run(cfg, wsnq.TAG, wsnq.WithObserver(&wsnq.Observer{Prof: p})); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Stats) == 0 {
		t.Fatal("no buckets after reuse")
	}
	for _, s := range rep.Stats {
		if s.Scope != "TAG" {
			t.Errorf("stale scope %q after Reset, want TAG only", s.Scope)
		}
	}
}

// nopCollector receives the flight-recorder stream and discards it:
// the baseline cost of a traced round.
type nopCollector struct{}

func (nopCollector) Collect(wsnq.TraceEvent) {}

// TestProfOverheadGuard enforces the ≤2% profiler budget on the traced
// round hot path: both sides run with tracing attached, so the guard
// measures exactly what phase attribution adds on top of the recorder.
// One warm simulation serves both sides, attribution alternating on it
// rep by rep, and the per-side minimum filters scheduler noise.
// Opt-in (PROF_GUARD=1) like the trace and series guards: wall-clock
// ratios are meaningless on loaded CI machines.
//
//	PROF_GUARD=1 go test -run TestProfOverheadGuard .
func TestProfOverheadGuard(t *testing.T) {
	if os.Getenv("PROF_GUARD") != "1" {
		t.Skip("timing guard; set PROF_GUARD=1 to run")
	}
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30 // stepped manually
	cfg.Runs = 1
	sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetTrace(nopCollector{})
	if _, err := sim.Step(); err != nil { // initialization round
		t.Fatal(err)
	}
	p := wsnq.NewProf()
	bench := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	var base, prof float64
	for rep := 0; rep < 6; rep++ {
		sim.SetProf(nil)
		if b := bench(); rep == 0 || b < base {
			base = b
		}
		sim.SetProf(p)
		if pr := bench(); rep == 0 || pr < prof {
			prof = pr
		}
	}
	overhead := prof/base - 1
	t.Logf("traced %.0f ns/op, traced+prof %.0f ns/op, overhead %+.2f%%", base, prof, 100*overhead)
	if overhead > 0.02 {
		t.Errorf("phase attribution costs %.2f%% on the traced round (> 2%% budget)", 100*overhead)
	}
}
