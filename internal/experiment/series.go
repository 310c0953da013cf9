package experiment

import (
	"wsnq/internal/prof"
	"wsnq/internal/series"
	"wsnq/internal/sim"
)

// SeriesSampler adapts a runtime's cumulative counters to the series
// recorder (series.Store.IngestTotals): traffic from the stats block,
// phase bits folded into the recorder's three named buckets
// (validation+filter, refinement, collect+init), and both energy
// watermarks from one ledger pass.
func SeriesSampler(rt *sim.Runtime) series.Sampler {
	return func() series.Totals {
		st := rt.Stats()
		total, hottest := rt.Ledger().SpentTotals()
		return series.Totals{
			Messages:       st.PayloadsSent,
			Frames:         st.FramesSent,
			Retries:        st.Retries,
			Adapts:         st.Adapts,
			ValidationBits: st.Phase(sim.PhaseValidation).Bits + st.Phase(sim.PhaseFilter).Bits,
			RefinementBits: st.Phase(sim.PhaseRefinement).Bits,
			ShippingBits:   st.Phase(sim.PhaseCollect).Bits + st.Phase(sim.PhaseInit).Bits,
			TotalBits:      st.BitsSent,
			Joules:         total,
			HotJoules:      hottest,
		}
	}
}

// ProfSeriesSampler is SeriesSampler with the Go runtime's health
// counters folded into every totals sample — the sampler a profiled
// run uses so its series points additionally carry GC pause p95, live
// heap, goroutine count, and allocs per round. The engine uses it when
// Options.Prof is set, and the query server for registrations on a
// profiled registry.
func ProfSeriesSampler(rt *sim.Runtime) series.Sampler {
	base, rs := SeriesSampler(rt), prof.NewRuntimeSampler()
	return func() series.Totals {
		t := base()
		s := rs.Sample()
		t.AllocBytes = int64(s.AllocBytes)
		t.AllocObjects = int64(s.AllocObjects)
		t.HeapLiveBytes = int64(s.HeapLiveBytes)
		t.Goroutines = s.Goroutines
		t.GCPauseMs = s.GCPauseP95Ms
		return t
	}
}
