package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsnq"
	"wsnq/internal/benchfmt"
)

// runBenchDiff loads two benchmark sessions and prints the
// benchstat-style delta table, flagging a uniform shift of the tracked
// hot paths (machine/toolchain change) when one is present.
func runBenchDiff(oldPath, newPath string) error {
	oldF, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (%s, %s)\nnew: %s (%s, %s)\n\n",
		oldPath, oldF.Date, oldF.GoVersion, newPath, newF.Date, newF.GoVersion)
	return benchfmt.FormatDiff(os.Stdout, oldF, newF)
}

// overheadBudget is the cost a layer may add to its base rung: 2% of
// the base's ns/op.
const overheadBudget = 0.02

// A rung is one observed path of the layer ladder. warm builds the
// path's state (a warm simulation past its initialization round, a
// server with its query registered) and returns the step one op runs
// on it. A rung with a base adds one layer to that rung and is held to
// overheadBudget over it. study, when set, names the protocol whose
// short study supplies the rung's domain costs.
type rung struct {
	name  string
	base  string
	study wsnq.Algorithm
	warm  func() (step func() error, err error)
}

// discard is a full flight-recorder collector that keeps nothing: its
// rung prices building every per-hop event, not storing it.
type discard struct{}

func (discard) Collect(wsnq.TraceEvent) {}

// rungs is the layer ladder: the six bare protocol rounds at |N| = 500,
// the IQ round under each observability layer, one hosted IQ query's
// serve step under objectives and policies, and the serve paths with
// no round underneath.
func rungs() []rung {
	var out []rung
	for _, alg := range wsnq.StandardAlgorithms() {
		name := "Round" + strings.ReplaceAll(string(alg), "-", "")
		out = append(out, rung{name: name, study: alg, warm: warmRound(alg, nil)})
	}
	return append(out,
		rung{name: "RoundIQTrace", warm: warmRound(wsnq.IQ, func(s *wsnq.Simulation) error {
			s.SetTrace(discard{})
			return nil
		})},
		// Phase attribution on top of the traced round.
		rung{name: "RoundIQProf", base: "RoundIQTrace", warm: warmRound(wsnq.IQ, func(s *wsnq.Simulation) error {
			s.SetTrace(discard{})
			s.SetProf(wsnq.NewProf())
			return nil
		})},
		// The series ingester, with the storm rule as its sink: what
		// every -alert / -http study pays per round.
		rung{name: "RoundIQSeries", base: "RoundIQ", warm: warmRound(wsnq.IQ, func(s *wsnq.Simulation) error {
			alerts, err := wsnq.NewAlerts("storm")
			if err != nil {
				return err
			}
			ob := &wsnq.Observer{Series: wsnq.NewSeries(), Alerts: alerts}
			s.SetTrace(ob.Collector(s, "IQ"))
			return nil
		})},
		// A controller whose heap/gc presets only fire on profiled
		// runs: the policies stand armed and never act, so the rung is
		// pure evaluation cost (the private series tap included).
		rung{name: "RoundIQAdapt", warm: warmRound(wsnq.IQ, func(s *wsnq.Simulation) error {
			ctl, err := wsnq.NewController("on heap(crit) do widen 2; on gc(warn) do narrow 2")
			if err != nil {
				return err
			}
			return s.SetController(ctl)
		})},
		rung{name: "ServeAdvance", warm: warmServe(wsnq.ServerConfig{})},
		rung{name: "ServeAdvanceSLO", base: "ServeAdvance", warm: warmServe(wsnq.ServerConfig{SLO: "rank; fresh; latency"})},
		// Standing policies again: the heap presets never fire unprofiled.
		rung{name: "ServeAdvanceAdapt", base: "ServeAdvance", warm: warmServe(wsnq.ServerConfig{Adapt: "on heap(crit) do reroot; on heap(warn) do widen 2"})},
		// What every POST /queries pays to admit a query and assemble
		// its runtime over the shared deployment; deregistering in the
		// same op keeps the registry size flat.
		rung{name: "ServeRegisterQuery", warm: func() (func() error, error) {
			srv := wsnq.NewServer(wsnq.ServerConfig{})
			cfg := wsnq.DefaultConfig()
			cfg.Nodes = 60
			cfg.Area = 80
			cfg.RadioRange = 25
			cfg.Rounds = 1 << 20
			cfg.Runs = 1
			if err := srv.AddFleet("fleet0", cfg); err != nil {
				return nil, err
			}
			return func() error {
				id, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: wsnq.IQ, Phi: 0.9})
				if err != nil {
					return err
				}
				return srv.Deregister(id)
			}, nil
		}},
		// One Observe across the three objective signals. Samples
		// alternate good and bad rounds so the rings, the budget
		// ledger and the level classification all do real work.
		rung{name: "ServeSLOEval", warm: func() (func() error, error) {
			slos, err := wsnq.NewSLOs("rank; fresh; latency")
			if err != nil {
				return nil, err
			}
			i := 0
			return func() error {
				slos.Observe("bench", wsnq.SLOSample{
					Round:     i,
					RankError: i % 40, // εN = 25 at |N|=500: bad every 26th..39th
					N:         500,
					Staleness: i % 3,
					LatencyMs: float64(i % 60),
				})
				i++
				return nil
			}, nil
		}},
		// One whole-study engine sample: a shared-deployment comparison
		// of the standard line-up.
		rung{name: "EngineCompare", warm: func() (func() error, error) {
			cfg := wsnq.DefaultConfig()
			cfg.Nodes = 200
			cfg.Rounds = 50
			cfg.Runs = 4
			return func() error {
				_, err := wsnq.CompareContext(context.Background(), cfg, wsnq.StandardAlgorithms())
				return err
			}, nil
		}},
	)
}

// roundConfig is the cell every Round rung steps: |N| = 500, one run,
// stepped manually.
func roundConfig() wsnq.Config {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30
	cfg.Runs = 1
	return cfg
}

// warmRound builds a simulation of alg with attach (if any) applied
// and its initialization round stepped; one op is one round.
func warmRound(alg wsnq.Algorithm, attach func(*wsnq.Simulation) error) func() (func() error, error) {
	return func() (func() error, error) {
		sim, err := wsnq.NewSimulation(roundConfig(), alg)
		if err != nil {
			return nil, err
		}
		if attach != nil {
			if err := attach(sim); err != nil {
				return nil, err
			}
		}
		step := func() error { _, err := sim.Step(); return err }
		return step, step() // the initialization round
	}
}

// warmServe builds a server hosting one IQ query on a 500-node fleet,
// advanced past its initialization round; one op is one Advance.
func warmServe(sc wsnq.ServerConfig) func() (func() error, error) {
	return func() (func() error, error) {
		srv := wsnq.NewServer(sc)
		if err := srv.AddFleet("fleet0", roundConfig()); err != nil {
			return nil, err
		}
		if _, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: wsnq.IQ}); err != nil {
			return nil, err
		}
		srv.Advance()
		return func() error { srv.Advance(); return nil }, nil
	}
}

// ladder is the rung table with the steps built so far: each rung's
// warm state is built once, the first time it is measured, and reused
// when it is measured again as another rung's base.
type ladder struct {
	rungs []rung
	steps map[string]func() error
}

func newLadder() *ladder {
	return &ladder{rungs: rungs(), steps: make(map[string]func() error)}
}

func (l *ladder) rung(name string) (rung, bool) {
	for _, r := range l.rungs {
		if r.name == name {
			return r, true
		}
	}
	return rung{}, false
}

func (l *ladder) step(name string) (func() error, error) {
	if step, ok := l.steps[name]; ok {
		return step, nil
	}
	r, ok := l.rung(name)
	if !ok {
		return nil, fmt.Errorf("no rung %q", name)
	}
	step, err := r.warm()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	l.steps[name] = step
	return step, nil
}

// sample is a rung's fastest rep and, for a rung with a base, the
// base's fastest rep from the same interleaved run.
type sample struct {
	rung, base testing.BenchmarkResult
}

// overhead is the rung's fractional ns/op over its base.
func (s sample) overhead() float64 {
	return float64(s.rung.NsPerOp())/float64(s.base.NsPerOp()) - 1
}

// measure times rung r reps times under testing.Benchmark and keeps the
// fastest rep. A rung with a base is timed against it interleaved, base
// first in every rep, so drift hits both sides alike. Allocations are
// deterministic per op, so the fastest rep measures the same work with
// the least scheduler disturbance.
func (l *ladder) measure(r rung, reps int) (sample, error) {
	step, err := l.step(r.name)
	if err != nil {
		return sample{}, err
	}
	var baseStep func() error
	if r.base != "" {
		if baseStep, err = l.step(r.base); err != nil {
			return sample{}, err
		}
	}
	var s sample
	for rep := 0; rep < max(reps, 1); rep++ {
		if baseStep != nil {
			res, err := bench(baseStep)
			if err != nil {
				return sample{}, fmt.Errorf("%s: %w", r.base, err)
			}
			if rep == 0 || res.NsPerOp() < s.base.NsPerOp() {
				s.base = res
			}
		}
		res, err := bench(step)
		if err != nil {
			return sample{}, fmt.Errorf("%s: %w", r.name, err)
		}
		if rep == 0 || res.NsPerOp() < s.rung.NsPerOp() {
			s.rung = res
		}
	}
	return s, nil
}

// bench runs step under testing.Benchmark, one step per op, stopping
// at the first error.
func bench(step func() error) (testing.BenchmarkResult, error) {
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = step()
		}
	})
	return res, err
}

// runBenchJSON is the continuous-benchmarking mode: it measures every
// rung of the ladder (the fastest of reps repetitions each, a layered
// rung interleaved with its base), pairs each bare protocol rung with
// the domain costs of a short study (frames and hottest-node energy per
// round), and writes one schema-versioned BENCH_<date>.json for the
// regression guard to diff against the previous session.
func runBenchJSON(out string, reps int) error {
	f := benchfmt.File{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if out == "" {
		var err error
		if out, err = benchfmt.NextFree(benchfmt.Filename(time.Now())); err != nil {
			return err
		}
	}

	l := newLadder()
	for _, r := range l.rungs {
		fmt.Fprintf(os.Stderr, "wsnq-bench: measuring %s...\n", r.name)
		s, err := l.measure(r, reps)
		if err != nil {
			return err
		}
		res := benchfmt.Result{
			Name:        r.name,
			Base:        r.base,
			NsPerOp:     float64(s.rung.NsPerOp()),
			BytesPerOp:  s.rung.AllocedBytesPerOp(),
			AllocsPerOp: s.rung.AllocsPerOp(),
		}
		if r.base != "" {
			fmt.Fprintf(os.Stderr, "wsnq-bench: %s %+.2f%% over %s\n", r.name, 100*s.overhead(), r.base)
		}
		if r.study != "" {
			cfg := roundConfig()
			cfg.Rounds = 40
			m, err := wsnq.Run(cfg, r.study)
			if err != nil {
				return fmt.Errorf("%s study: %w", r.name, err)
			}
			res.FramesPerRound = m.FramesPerRound
			res.EnergyPerRound = m.MaxNodeEnergyPerRound
		}
		// Stamp the sample with its allocation budget: the measured
		// allocs/op plus 10%, rounded up, so a count of 1 still gets
		// headroom of 1. Allocations are deterministic per op, which is
		// what lets the regression guard enforce these as hard ceilings
		// where ns/op only supports a relative threshold.
		if a := res.AllocsPerOp; a > 0 {
			res.AllocsCeiling = a + (a+9)/10
		}
		f.Results = append(f.Results, res)
	}

	if err := benchfmt.WriteFile(out, f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wsnq-bench: wrote %s (%d results)\n", out, len(f.Results))
	return nil
}
