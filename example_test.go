package wsnq_test

import (
	"context"
	"fmt"

	"wsnq"
)

// ExampleRun executes a small continuous-median study with IQ and
// reports whether every round was answered exactly.
func ExampleRun() {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 60
	cfg.RadioRange = 50
	cfg.Rounds = 25
	cfg.Runs = 1
	cfg.Seed = 7

	m, err := wsnq.Run(cfg, wsnq.IQ)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("exact rounds: %d/%d\n", m.ExactRounds, m.Rounds)
	// Output:
	// exact rounds: 25/25
}

// ExampleNewSimulation drives a deployment round by round and checks
// the answer against the central oracle.
func ExampleNewSimulation() {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 50
	cfg.RadioRange = 50
	cfg.Rounds = 10
	cfg.Runs = 1
	cfg.Seed = 3

	sim, err := wsnq.NewSimulation(cfg, wsnq.HBC)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	exact := 0
	for i := 0; i < 10; i++ {
		res, err := sim.Step()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if res.Quantile == res.Oracle {
			exact++
		}
	}
	fmt.Printf("algorithm %s, k=%d, exact %d/10\n", sim.AlgorithmName(), sim.K(), exact)
	// Output:
	// algorithm HBC, k=25, exact 10/10
}

// ExampleCompareContext contrasts two algorithms on identical
// deployments.
func ExampleCompareContext() {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 60
	cfg.RadioRange = 50
	cfg.Rounds = 30
	cfg.Runs = 1
	cfg.Seed = 11

	res, err := wsnq.CompareContext(context.Background(), cfg, []wsnq.Algorithm{wsnq.TAG, wsnq.IQ})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	iq, _ := res.Get(wsnq.IQ)
	tag, _ := res.Get(wsnq.TAG)
	fmt.Printf("IQ cheaper than TAG: %v\n", iq.MaxNodeEnergyPerRound < tag.MaxNodeEnergyPerRound)
	// Output:
	// IQ cheaper than TAG: true
}

// ExampleFigures lists the reproducible evaluation artifacts.
func ExampleFigures() {
	for _, f := range wsnq.Figures()[:3] {
		fmt.Println(f.ID)
	}
	// Output:
	// fig6
	// fig7
	// fig8
}
