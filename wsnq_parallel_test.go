// Tests for the parallel experiment engine's public surface: the
// parallel-equals-sequential determinism guarantee, the ordered
// CompareResults API, option handling, and the context entry points.
package wsnq

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// parCfg exercises multiple runs so the engine actually fans out.
func parCfg() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 60
	cfg.RadioRange = 45
	cfg.Rounds = 30
	cfg.Runs = 4
	cfg.Dataset.Universe = 1 << 12
	return cfg
}

// TestParallelMatchesSequential is the determinism regression test: a
// comparison fanned out over eight workers must produce byte-identical
// Metrics — every field, including the phase anatomy map — to the same
// comparison on a single worker, for every standard algorithm.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := parCfg()
	algs := StandardAlgorithms()
	seq, err := CompareContext(context.Background(), cfg, algs, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompareContext(context.Background(), cfg, algs, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(algs) || len(par) != len(algs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(algs))
	}
	for i, alg := range algs {
		if seq[i].Algorithm != alg || par[i].Algorithm != alg {
			t.Fatalf("result %d out of order: %s/%s, want %s", i, seq[i].Algorithm, par[i].Algorithm, alg)
		}
		if !reflect.DeepEqual(seq[i].Metrics, par[i].Metrics) {
			t.Errorf("%s: parallel metrics differ from sequential:\nseq %+v\npar %+v",
				alg, seq[i].Metrics, par[i].Metrics)
		}
	}
}

// TestParallelMatchesSequentialWithLoss repeats the determinism check
// with message loss enabled, since loss injection draws from an extra
// RNG stream that must also be deployment-local.
func TestParallelMatchesSequentialWithLoss(t *testing.T) {
	cfg := parCfg()
	cfg.LossProb = 0.05
	for _, alg := range []Algorithm{POS, HBC} {
		seq, err := RunContext(context.Background(), cfg, alg, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunContext(context.Background(), cfg, alg, WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s with loss: parallel metrics differ from sequential", alg)
		}
	}
}

// TestCompareContextMatchesRun checks the shared-deployment guarantee
// from the caller's side: comparing algorithms together yields exactly
// the metrics each algorithm gets when run alone, because both paths
// build the same per-run deployments.
func TestCompareContextMatchesRun(t *testing.T) {
	cfg := parCfg()
	cfg.Runs = 2
	algs := []Algorithm{TAG, IQ}
	res, err := CompareContext(context.Background(), cfg, algs)
	if err != nil {
		t.Fatal(err)
	}
	for i, alg := range algs {
		solo, err := RunContext(context.Background(), cfg, alg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i].Metrics, solo) {
			t.Errorf("%s: Compare metrics differ from a solo Run", alg)
		}
	}
}

// TestCompareResultsAccessors checks Get and Map against the ordered
// slice.
func TestCompareResultsAccessors(t *testing.T) {
	cfg := parCfg()
	cfg.Runs = 1
	res, err := CompareContext(context.Background(), cfg, []Algorithm{TAG, IQ})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := res.Get(IQ)
	if !ok || !reflect.DeepEqual(m, res[1].Metrics) {
		t.Error("Get(IQ) did not return the IQ entry")
	}
	if _, ok := res.Get(Algorithm("NOPE")); ok {
		t.Error("Get of an absent algorithm reported ok")
	}
}

// TestRunContextCancelled checks that an already-cancelled context
// aborts before any simulation work.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, parCfg(), IQ); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestWithProgress checks that the grid size is Runs × algorithms and
// that the callback sees completion.
func TestWithProgress(t *testing.T) {
	cfg := parCfg()
	cfg.Runs = 2
	algs := []Algorithm{TAG, POS, IQ}
	var last, total int
	_, err := CompareContext(context.Background(), cfg, algs,
		WithParallelism(4),
		WithProgress(func(d, tot int) { last, total = d, tot }))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Runs * len(algs)
	if total != want || last != want {
		t.Errorf("progress ended at %d/%d, want %d/%d", last, total, want, want)
	}
}

// TestKMatchesValidatedConfig pins the K facade to the harness's
// validated computation, including multi-value nodes (the bug was K
// ignoring validation and quietly recomputing on the raw fields).
func TestKMatchesValidatedConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 250
	cfg.Phi = 0.5
	if got := cfg.K(); got != 125 {
		t.Errorf("K() = %d, want 125", got)
	}
	cfg.ValuesPerNode = 3
	if got := cfg.K(); got != 375 {
		t.Errorf("K() with 3 values/node = %d, want 375", got)
	}
	cfg.Phi = 0.75
	if got := cfg.K(); got != 562 {
		t.Errorf("K() at phi=0.75 = %d, want 562", got)
	}
}
