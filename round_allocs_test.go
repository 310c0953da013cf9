package wsnq_test

import (
	"runtime"
	"testing"

	"wsnq"
)

// roundAllocCeilings is the allocation ratchet of the round path: the
// allocations one warmed Simulation.Step may make at |N| = 500, seed 1.
// The convergecast inbox is reused, every protocol payload is recycled
// with its storage, LCLL's partition splices in place from reused
// buffers, the rank oracle selects in place in a reused buffer, and
// every per-phase root result is collected into a buffer its algorithm
// owns, so a warm round allocates nothing. Each ceiling is twice the
// path's measured count (0 for every algorithm). Lower a ceiling when a
// change cuts a path's count; never raise one to absorb a regression.
var roundAllocCeilings = []struct {
	alg     wsnq.Algorithm
	ceiling float64
}{
	{wsnq.TAG, 0},
	{wsnq.POS, 0},
	{wsnq.LCLLH, 0},
	{wsnq.LCLLS, 0},
	{wsnq.HBC, 0},
	{wsnq.IQ, 0},
}

// TestRoundAllocs holds every standard algorithm's steady-state round
// under its allocation ceiling.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of recycled payloads; allocation counts are only meaningful without it")
	}
	for _, c := range roundAllocCeilings {
		t.Run(string(c.alg), func(t *testing.T) {
			cfg := wsnq.DefaultConfig()
			cfg.Nodes = 500
			cfg.Seed = 1
			cfg.Rounds = 1 << 30 // stepped manually
			cfg.Runs = 1
			sim, err := wsnq.NewSimulation(cfg, c.alg)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if _, err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// The initialization round plus 63 updates warm the payload
			// pools and the runtime's scratch buffers. LCLL-H keeps
			// allocating extra objects for ~45 rounds (8, 5, 7, 4 … a
			// round, settling to 1); measured inside that warm-up its
			// count would depend on the pool state earlier subtests
			// left.
			for i := 0; i < 64; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(50, step)
			t.Logf("%s: %.1f allocs/round (ceiling %.0f)", c.alg, allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("%s round allocates %.1f objects, ceiling %.0f", c.alg, allocs, c.ceiling)
			}
		})
	}
}

// figureAllocsPerNodeRound caps the allocations of one warm Figure 7
// pass in the shape of the sweep benchmark (scale 0.05, |N| = 500, one
// worker) per simulated node-round. It is twice the measured count
// (~1,850 allocations over 600,000 node-rounds, 0.0031); lower it when
// a change cuts the count, never raise it to absorb a regression.
const figureAllocsPerNodeRound = 0.0062

// TestFigureAllocs holds a whole figure pass, deployments, protocol
// initialization and the engine included, under its allocation
// ceiling, so the allocation count the sweep benchmark reports is
// guarded by go test alone.
func TestFigureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of recycled payloads; allocation counts are only meaningful without it")
	}
	opts := wsnq.FigureOptions{Scale: 0.05, Nodes: 500, Seed: 1, Parallelism: 1}
	pass := func() []*wsnq.Table {
		tables, err := wsnq.RunFigure("fig7", opts)
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	pass() // warms the payload pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tables := pass()
	runtime.ReadMemStats(&after)
	nodeRounds := 0
	for _, tb := range tables {
		for _, row := range tb.Rows {
			for _, col := range tb.Cols {
				m, _ := tb.Cell(row, col)
				nodeRounds += m.Rounds * opts.Nodes
			}
		}
	}
	if nodeRounds == 0 {
		t.Fatal("the figure pass simulated no rounds")
	}
	perNodeRound := float64(after.Mallocs-before.Mallocs) / float64(nodeRounds)
	t.Logf("fig7: %d allocs over %d node-rounds = %.5f per node-round (ceiling %.5f)",
		after.Mallocs-before.Mallocs, nodeRounds, perNodeRound, figureAllocsPerNodeRound)
	if perNodeRound > figureAllocsPerNodeRound {
		t.Errorf("a Figure 7 pass allocates %.5f objects per node-round, ceiling %.5f", perNodeRound, figureAllocsPerNodeRound)
	}
}
