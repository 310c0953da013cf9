package experiment

import (
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/sim"
)

// countingSource counts source evaluations per round: one per Value
// call, and one per node a Fill writes.
type countingSource struct {
	data.Source
	calls map[int]int
}

func (c *countingSource) Value(node, round int) int {
	c.calls[round]++
	return c.Source.Value(node, round)
}

func (c *countingSource) Fill(round int, dst []int) {
	c.calls[round] += len(dst)
	c.Source.Fill(round, dst)
}

// TestSourceEvaluatedOncePerRound drives every standard algorithm
// through the round driver, with the oracle and rank-error reads every
// driver makes, and requires exactly N source evaluations per round and
// readings equal to the source's values.
func TestSourceEvaluatedOncePerRound(t *testing.T) {
	cfg := smallCfg()
	dep, err := BuildDeployment(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.Topology().N()
	for _, a := range StandardAlgorithms() {
		t.Run(a.Name, func(t *testing.T) {
			src := &countingSource{Source: dep.Source(), calls: map[int]int{}}
			rt, err := sim.New(sim.Config{
				Topology: dep.Topology(), Source: src,
				Sizes: cfg.Sizes, Energy: cfg.Energy, Seed: dep.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			drv, err := NewDriver(rt, a.New(), cfg.K(), Rig{})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cfg.Rounds; r++ {
				v, err := drv.Step()
				if err != nil {
					t.Fatal(err)
				}
				q := v.Answer
				if o := rt.Oracle(cfg.K()); q != o {
					t.Fatalf("round %d: answer %d, oracle %d", r, q, o)
				}
				if e := rt.RankErrorOf(cfg.K(), q); e != 0 {
					t.Fatalf("round %d: rank error %d", r, e)
				}
				for i := 0; i < n; i++ {
					if got, want := rt.Reading(i), dep.Source().Value(i, rt.Round()); got != want {
						t.Fatalf("round %d node %d: Reading %d, source %d", r, i, got, want)
					}
				}
				if c := src.calls[rt.Round()]; c != n {
					t.Fatalf("round %d: %d source evaluations, want %d", r, c, n)
				}
			}
			if len(src.calls) != cfg.Rounds {
				t.Errorf("source evaluated in %d rounds, want %d", len(src.calls), cfg.Rounds)
			}
		})
	}
}
