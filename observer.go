package wsnq

import (
	"net/http"

	"wsnq/internal/experiment"
	"wsnq/internal/series"
	"wsnq/internal/slo"
	"wsnq/internal/telemetry"
	"wsnq/internal/trace"
)

// Observer bundles every observability sink a study or a live
// simulation can attach — the flight recorder, the live telemetry
// surface, the per-round time series, the streaming alert rules, the
// objectives, the profiler, and the series key prefix that namespaces
// them — into one composable value, with a single contract used
// identically by:
//
//   - studies: wsnq.Run(cfg, alg, wsnq.WithObserver(o))
//   - figures: FigureOptions{Observer: o}
//   - live simulations: sim.SetTrace(o.Collector(sim, key))
//
// Any field may be nil (or empty); only the bundled sinks attach.
// Attaching a Trace, Telemetry, Series, Alerts, or Prof sink forces
// strictly sequential study execution in deterministic grid order, so
// a shared sink never sees interleaved runs.
type Observer struct {
	// Trace receives the raw flight-recorder event stream.
	Trace TraceCollector
	// Telemetry feeds the live metrics registry and network-health
	// analyzer; Handler serves them as /metrics and /health.
	Telemetry *Telemetry
	// Series records bounded per-round time series.
	Series *Series
	// Alerts streams every round through declarative alert rules.
	Alerts *Alerts
	// SLO evaluates declarative objectives (error budgets, burn
	// rates) on every completed round. Live simulations (Collector)
	// feed it; batch studies do not — their sweep cells mix
	// populations an objective's εN tolerance cannot scale against, so
	// apply leaves it detached and it only backs Handler's /slo.
	SLO *SLOs
	// Prof attributes CPU time and heap allocations to algorithm×phase
	// buckets and labels the running goroutine for sampling profiles.
	// Studies attach it through this slot; a live Simulation attaches
	// it with Simulation.SetProf (profiling rides on phase switches,
	// not on the trace stream, so Collector does not carry it).
	Prof *Prof
	// Key namespaces the series keys this observer writes: studies
	// prefix every engine key with "Key/", and Collector uses it as the
	// default key of a live simulation's series.
	Key string
}

// apply folds the bundle into the engine options; nil fields leave the
// corresponding slot untouched, so observers compose with earlier
// options.
func (ob *Observer) apply(o *engineOptions) {
	if ob.Trace != nil {
		c := ob.Trace
		o.exp.Trace = func(experiment.TraceJob) trace.Collector { return c }
	}
	if ob.Telemetry != nil {
		o.exp.Telemetry = ob.Telemetry.reg
		o.health = ob.Telemetry.an
	}
	if ob.Series != nil {
		o.exp.Series = ob.Series
	}
	if ob.Alerts != nil {
		o.exp.Alerts = ob.Alerts
	}
	if ob.Prof != nil {
		o.exp.Prof = ob.Prof
	}
	if ob.Key != "" {
		o.exp.KeyPrefix = ob.Key
	}
}

// Collector renders the bundle as one flight-recorder collector for a
// live simulation (Simulation.SetTrace): the raw Trace collector, the
// health analyzer, and the sampling series path fan out from a single
// dispatch. The series path samples sim's cumulative traffic and
// energy counters once per round instead of counting trace events, so
// attached alone it makes the runtime build no per-hop events; each
// completed round's point also feeds Alerts and classifies against
// SLO, with the simulation's population scaling the rank objective's
// εN tolerance. key labels the series ("" uses the observer's Key,
// then "sim"); call sim.FinishTrace after the last Step so the final
// round flushes. An observer with no stream consumers returns nil,
// which detaches.
func (ob *Observer) Collector(sim *Simulation, key string) TraceCollector {
	if key == "" {
		if key = ob.Key; key == "" {
			key = "sim"
		}
	}
	cs := []TraceCollector{ob.Trace}
	if ob.Telemetry != nil {
		cs = append(cs, ob.Telemetry.an)
	}
	if ob.Series != nil || ob.Alerts != nil || ob.SLO != nil {
		ser := ob.Series
		if ser == nil {
			// Alerts or SLOs alone still need per-round points; derive
			// them through a minimal throwaway store, like the engine
			// does.
			ser = series.New(1)
		}
		var sinks []series.Sink
		if a := ob.Alerts; a != nil {
			a.StartRun(key)
			sinks = append(sinks, a.Observe)
		}
		if sl := ob.SLO; sl != nil {
			n := sim.rt.N()
			sl.StartRun(key)
			sinks = append(sinks, func(k string, p series.Point) {
				sl.Observe(k, slo.SampleFromPoint(p, n, 0))
			})
		}
		cs = append(cs, ser.IngestTotals(key, experiment.SeriesSampler(sim.rt), sinks...))
	}
	return MultiCollector(cs...)
}

// Handler returns the bundle's HTTP exposition surface: /metrics and
// /health from Telemetry, /series and /dashboard from Series, /alerts
// from Alerts, /profilez from Prof, /slo from SLO, plus /debug/pprof
// and an index at /. Endpoints without a backing sink answer 404.
func (ob *Observer) Handler() http.Handler {
	var reg *telemetry.Registry
	var an *telemetry.Analyzer
	if ob.Telemetry != nil {
		reg, an = ob.Telemetry.reg, ob.Telemetry.an
	}
	return telemetry.Handler(reg, an, ob.Series, ob.Alerts, ob.Prof, ob.SLO)
}

// WithObserver attaches an observer bundle to the study: every non-nil
// sink in o attaches to every run, and o.Key prefixes the study's
// series keys. A nil o is
// ignored. Later options (or a later observer) override earlier ones
// slot by slot.
func WithObserver(o *Observer) Option {
	return func(eo *engineOptions) {
		if o == nil {
			return
		}
		o.apply(eo)
	}
}
