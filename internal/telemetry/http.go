package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"

	"wsnq/internal/alert"
	"wsnq/internal/prof"
	"wsnq/internal/report"
	"wsnq/internal/series"
	"wsnq/internal/slo"
)

// dashboardEvents bounds the recent-events list on the dashboard page.
const dashboardEvents = 20

// Handler returns the live exposition surface shared by all cmd tools:
//
//	/metrics       JSON registry snapshot (nil reg → 404)
//	/health        JSON analyzer health report (nil an → 404)
//	/series        JSON per-round time-series snapshot (nil st → 404)
//	/alerts        JSON alert rules, states, and log (nil eng → 404)
//	/profilez      JSON per-phase CPU/alloc attribution (nil rec → 404)
//	/slo           JSON SLO specs, budget statuses, and burn-rate
//	               transition log (nil slt → 404)
//	/dashboard     self-contained HTML: sparklines, charts, alerts,
//	               SLO error budgets
//	/debug/pprof/  the standard net/http/pprof profiling hooks
//	/              a plain-text index of the above
//
// Any argument may be nil; the corresponding endpoint then reports
// 404 instead of serving empty data (the dashboard needs at least a
// series store). /metrics additionally samples the Go runtime's own
// health gauges (runtime.*) at scrape time, so every tool exposes GC
// and heap pressure without a sampling goroutine.
func Handler(reg *Registry, an *Analyzer, st *series.Store, eng *alert.Engine, rec *prof.Recorder, slt *slo.Tracker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if reg == nil {
			http.NotFound(w, req)
			return
		}
		PublishRuntime(reg)
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, req *http.Request) {
		if rec == nil {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, rec.Report())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, req *http.Request) {
		if an == nil {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, an.Report())
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, req *http.Request) {
		if st == nil {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, st.Snapshot())
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, req *http.Request) {
		if eng == nil {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, alertsView(eng))
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, req *http.Request) {
		if slt == nil {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, sloView(slt))
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, req *http.Request) {
		if st == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, report.Dashboard(dashData(st, eng, slt)))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "wsnq telemetry endpoints:")
		fmt.Fprintln(w, "  /metrics      registry snapshot (JSON)")
		fmt.Fprintln(w, "  /health       network-health report (JSON)")
		fmt.Fprintln(w, "  /series       per-round time series (JSON)")
		fmt.Fprintln(w, "  /alerts       alert states and log (JSON)")
		fmt.Fprintln(w, "  /profilez     per-phase CPU/alloc attribution (JSON)")
		fmt.Fprintln(w, "  /slo          SLO budget statuses and burn log (JSON)")
		fmt.Fprintln(w, "  /dashboard    live HTML dashboard")
		fmt.Fprintln(w, "  /debug/pprof  runtime profiles")
	})
	return mux
}

// AlertsView is the /alerts response body.
type AlertsView struct {
	Rules   []string      `json:"rules"` // canonical grammar strings
	States  []alert.State `json:"states"`
	Events  []alert.Event `json:"events"`
	Dropped int           `json:"dropped_events,omitempty"`
}

func alertsView(eng *alert.Engine) AlertsView {
	v := AlertsView{
		States:  eng.States(),
		Events:  eng.Log(),
		Dropped: eng.Dropped(),
	}
	for _, r := range eng.Rules() {
		v.Rules = append(v.Rules, r.String())
	}
	return v
}

// SLOTelemetryView is the /slo response body.
type SLOTelemetryView struct {
	Specs    []string     `json:"specs"` // canonical grammar strings
	Statuses []slo.Status `json:"statuses"`
	Events   []slo.Event  `json:"events"`
	Dropped  int          `json:"dropped_events,omitempty"`
}

func sloView(slt *slo.Tracker) SLOTelemetryView {
	v := SLOTelemetryView{
		Statuses: slt.Statuses(),
		Events:   slt.Log(),
		Dropped:  slt.Dropped(),
	}
	for _, sp := range slt.Specs() {
		v.Specs = append(v.Specs, sp.String())
	}
	return v
}

// dashData converts the live store, engine, and SLO tracker into the
// plain data the report renderer consumes.
func dashData(st *series.Store, eng *alert.Engine, slt *slo.Tracker) report.DashData {
	d := report.DashData{Title: "wsnq dashboard", RefreshSec: 2}
	snap := st.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := snap[k]
		ds := report.DashSeries{Key: k}
		for _, p := range s.Points {
			span := float64(p.Span)
			if span < 1 {
				span = 1
			}
			ds.Rounds = append(ds.Rounds, float64(p.Round))
			ds.Frames = append(ds.Frames, p.FramesPerRound())
			ds.Joules = append(ds.Joules, p.JoulesPerRound())
			ds.RankError = append(ds.RankError, float64(p.RankError))
			ds.Refines = append(ds.Refines, float64(p.Refines)/span)
			ds.Validation = append(ds.Validation, float64(p.ValidationBits)/span)
			ds.Refinement = append(ds.Refinement, float64(p.RefinementBits)/span)
			ds.Shipping = append(ds.Shipping, float64(p.ShippingBits)/span)
			ds.Other = append(ds.Other, float64(p.OtherBits)/span)
		}
		d.Series = append(d.Series, ds)
	}
	if eng != nil {
		for _, s := range eng.States() {
			d.Alerts = append(d.Alerts, report.DashAlert{
				Rule: s.Rule, Key: s.Key, Level: s.Level.String(),
				Value: s.Value, Since: s.Since,
			})
		}
		log := eng.Log()
		if len(log) > dashboardEvents {
			log = log[len(log)-dashboardEvents:]
		}
		for _, ev := range log {
			d.Events = append(d.Events, ev.Message)
		}
	}
	if slt != nil {
		for _, s := range slt.Statuses() {
			d.SLOs = append(d.SLOs, report.DashSLO{
				Name: s.SLO, Key: s.Key, Signal: s.Signal,
				Level: s.Level.String(), Burn: s.Burn, Spend: s.Spend,
				Since: s.Since,
			})
		}
	}
	return d
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
