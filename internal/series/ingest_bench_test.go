package series_test

import (
	"testing"

	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
)

type nop struct{}

func (nop) Collect(trace.Event) {}

func benchEvents() []trace.Event {
	evs := make([]trace.Event, 0, 2100)
	evs = append(evs, trace.Event{Kind: trace.KindRoundStart, Node: -1})
	for n := 0; n < 500; n++ {
		evs = append(evs,
			trace.Event{Kind: trace.KindSend, Node: n, Phase: sim.PhaseValidation, Wire: 64, Frames: 1},
			trace.Event{Kind: trace.KindEnergy, Node: n, Joules: 1e-7},
			trace.Event{Kind: trace.KindReceive, Node: n, Wire: 64},
			trace.Event{Kind: trace.KindEnergy, Node: n, Joules: 5e-8},
		)
	}
	evs = append(evs, trace.Event{Kind: trace.KindDecision, Err: 1}, trace.Event{Kind: trace.KindRoundEnd, Node: -1})
	return evs
}

//go:noinline
func hide(c trace.Collector) trace.Collector { return c }

func BenchmarkNopRound(b *testing.B) {
	c := hide(nop{})
	evs := benchEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range evs {
			c.Collect(e)
		}
	}
}

func BenchmarkIngestTotalsRound(b *testing.B) {
	st := series.New(0)
	in := hide(st.IngestTotals("IQ", func() series.Totals { return series.Totals{} }))
	evs := benchEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range evs {
			in.Collect(e)
		}
	}
}
