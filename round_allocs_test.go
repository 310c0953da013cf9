package wsnq_test

import (
	"testing"

	"wsnq"
)

// roundAllocCeilings is the allocation ratchet of the round path: the
// allocations one warmed Simulation.Step may make at |N| = 500, seed 1.
// The convergecast inbox is reused, every protocol payload is recycled
// with its storage, and LCLL's partition splices in place from reused
// buffers, and the rank oracle selects in place in a reused buffer, so
// what remains is per-phase root results. Each ceiling is twice the
// path's measured count (TAG 1, POS 3, LCLL-H 1, LCLL-S 6, HBC 2,
// IQ 5). Lower a ceiling when a change cuts a path's count; never
// raise one to absorb a regression.
var roundAllocCeilings = []struct {
	alg     wsnq.Algorithm
	ceiling float64
}{
	{wsnq.TAG, 2},
	{wsnq.POS, 6},
	{wsnq.LCLLH, 2},
	{wsnq.LCLLS, 12},
	{wsnq.HBC, 4},
	{wsnq.IQ, 10},
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
