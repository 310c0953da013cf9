package wsnq_test

import (
	"bytes"
	"math"
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
	// (the refinement storm the alert preset fires on), and every slide
	// collects a histogram into the tally buffer LCLL owns, so the
	// attributed bytes per round stay under a ceiling. What is left is
	// mostly the loss path: payloads lost in flight refill the pools,
	// and desyncs re-initialize.
	const lcllsBytesPerRound = 8 << 10
	p2 := wsnq.NewProf()
	if _, err := wsnq.Run(goldenConfig(), wsnq.LCLLS, wsnq.WithObserver(&wsnq.Observer{Prof: p2})); err != nil {
		t.Fatal(err)
	}
	rep2 := p2.Report()
	stop, ok := rep2.TopAllocPhase("LCLL-S")
	if !ok {
		t.Fatal("no LCLL-S buckets recorded")
	}
	perRound := float64(rep2.TotalAllocBytes) / float64(goldenConfig().Rounds)
	t.Logf("LCLL-S: %.0f B/round (ceiling %d), top allocating phase %s (%.1f%%)",
		perRound, lcllsBytesPerRound, stop.Phase, 100*stop.AllocShare)
	if raceEnabled {
		// The race detector makes sync.Pool drop a random share of
		// recycled payloads; byte counts are only meaningful without it.
		return
	}
	if perRound > lcllsBytesPerRound {
		t.Errorf("LCLL-S allocates %.0f B/round in the golden cell, ceiling %d: a slide's collection allocates again?",
			perRound, lcllsBytesPerRound)
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
