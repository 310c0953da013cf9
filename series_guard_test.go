package wsnq_test

import (
	"os"
	"testing"

	"wsnq"
)

// TestSeriesIngestOverheadGuard enforces the ≤2% budget for per-round
// series ingestion (plus the storm rule as its sink) on the IQ hot
// path: the baseline runs with no collector attached, so the guard
// measures everything the round-level ingester adds to a bare round.
// One warm simulation serves both sides — the collector is attached and
// detached rep by rep, so deployment layout, data stream, and thermal
// drift hit baseline and series measurements alike, and the per-side
// minimum filters scheduler noise. Opt-in (SERIES_GUARD=1) because
// wall-clock ratios are meaningless on loaded CI machines; the
// cross-session RoundIQSeries entry in the bench JSON guards the same
// path continuously.
//
//	SERIES_GUARD=1 go test -run TestSeriesIngestOverheadGuard .
func TestSeriesIngestOverheadGuard(t *testing.T) {
	if os.Getenv("SERIES_GUARD") != "1" {
		t.Skip("timing guard; set SERIES_GUARD=1 to run")
	}
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30 // stepped manually
	cfg.Runs = 1
	sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := wsnq.NewAlerts("storm")
	if err != nil {
		t.Fatal(err)
	}
	ser := wsnq.NewSeries()
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
	if _, err := sim.Step(); err != nil { // initialization round
		t.Fatal(err)
	}
	var base, ingest float64
	for rep := 0; rep < 6; rep++ {
		sim.SetTrace(nil)
		if b := bench(); rep == 0 || b < base {
			base = b
		}
		// A fresh collector per attach re-baselines the counter diff at
		// the attach point (rounds stepped without a collector must not
		// be charged to the first series round).
		sim.SetTrace(sim.SeriesCollector(ser, "IQ", alerts))
		if s := bench(); rep == 0 || s < ingest {
			ingest = s
		}
	}
	overhead := ingest/base - 1
	t.Logf("bare %.0f ns/op, series %.0f ns/op, overhead %+.2f%%", base, ingest, 100*overhead)
	if overhead > 0.02 {
		t.Errorf("series ingest costs %.2f%% on the bare round (> 2%% budget)", 100*overhead)
	}
}
