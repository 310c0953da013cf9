package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"wsnq/internal/alert"
	"wsnq/internal/series"
	"wsnq/internal/slo"
)

// viewAlertEvents bounds the alert events echoed in a query view.
const viewAlertEvents = 20

// maxSpecBytes bounds a POST /queries body; a spec is a few hundred
// bytes, so anything near the bound is not a spec.
const maxSpecBytes = 1 << 20

// Handler returns the registry's HTTP/JSON API:
//
//	GET    /serve                registry status (round, queries, instances, dropped)
//	GET    /slo                  per-query SLO budget status across the registry
//	GET    /fleets               registered fleets
//	GET    /queries              registered query summaries
//	POST   /queries              register (Spec JSON body) → 201 + view
//	GET    /queries/{id}         latest answer, window stats, alerts
//	DELETE /queries/{id}         deregister → 204
//	GET    /queries/{id}/subscribe  NDJSON stream of round updates
//
// Registration errors map to status codes: bad spec 400, unknown
// fleet/query 404, duplicate ID 409, a body over maxSpecBytes 413,
// admission control 429. Requests
// matching none of the routes fall through to next (the shared
// telemetry surface in wsnq-serve); a nil next reports 404.
func Handler(r *Registry, next http.Handler) http.Handler {
	if next == nil {
		next = http.NotFoundHandler()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /serve", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, statusView(r))
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, sloView(r))
	})
	mux.HandleFunc("GET /fleets", func(w http.ResponseWriter, req *http.Request) {
		fleets := r.Fleets()
		out := make([]fleetView, 0, len(fleets))
		for _, f := range fleets {
			out = append(out, fleetView{
				Name: f.Name(), Nodes: f.Nodes(),
				Phi: f.Config().Phi, Seed: f.Config().Seed,
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, req *http.Request) {
		qs := r.Queries()
		out := make([]querySummary, 0, len(qs))
		for _, q := range qs {
			out = append(out, summarize(q))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /queries", func(w http.ResponseWriter, req *http.Request) {
		var spec Spec
		body := http.MaxBytesReader(w, req.Body, maxSpecBytes)
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "serve: bad spec: "+err.Error(), code)
			return
		}
		q, err := r.Register(spec)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, http.StatusCreated, View(q))
	})
	mux.HandleFunc("GET /queries/{id}", func(w http.ResponseWriter, req *http.Request) {
		q, ok := r.Query(req.PathValue("id"))
		if !ok {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, http.StatusOK, View(q))
	})
	mux.HandleFunc("DELETE /queries/{id}", func(w http.ResponseWriter, req *http.Request) {
		if err := r.Deregister(req.PathValue("id")); err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /queries/{id}/subscribe", func(w http.ResponseWriter, req *http.Request) {
		q, ok := r.Query(req.PathValue("id"))
		if !ok {
			http.NotFound(w, req)
			return
		}
		limit := 0 // 0: stream until the client goes away
		if s := req.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "serve: bad n", http.StatusBadRequest)
				return
			}
			limit = n
		}
		streamUpdates(w, req, q, limit)
	})
	mux.Handle("/", next)
	return mux
}

// streamUpdates serves one subscription as NDJSON: one Update object
// per line, flushed per round so clients see answers live.
func streamUpdates(w http.ResponseWriter, req *http.Request, q *Query, limit int) {
	sub := q.Subscribe()
	defer q.Unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	for {
		select {
		case <-req.Context().Done():
			return
		case u, ok := <-sub.Updates():
			if !ok {
				return
			}
			if err := enc.Encode(u); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if sent++; limit > 0 && sent >= limit {
				return
			}
		}
	}
}

// statusOf maps registration errors to HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// StatusView is the GET /serve response body. Instances is the number
// of protocol instances the last Advance stepped; it falls below
// Queries when queries share instances.
type StatusView struct {
	Round     int   `json:"round"`
	Queries   int   `json:"queries"`
	Instances int   `json:"instances"`
	Fleets    int   `json:"fleets"`
	Dropped   int64 `json:"dropped_updates"`
}

func statusView(r *Registry) StatusView {
	return StatusView{
		Round:     r.Round(),
		Queries:   r.Len(),
		Instances: r.Instances(),
		Fleets:    len(r.Fleets()),
		Dropped:   r.Dropped(),
	}
}

// QuerySLO is one query's SLO budget state in the GET /slo response:
// the declared objectives (canonical grammar), the per-objective
// budget statuses after the latest Advance, and the tail of the
// burn-rate transition log.
type QuerySLO struct {
	Query    string       `json:"query"`
	Key      string       `json:"key"`
	Specs    []string     `json:"specs"`
	Statuses []slo.Status `json:"statuses,omitempty"`
	Events   []slo.Event  `json:"events,omitempty"`
	Dropped  int          `json:"dropped_events,omitempty"`
}

// sloView assembles the GET /slo response: one entry per query with
// attached objectives, sorted by query ID. Queries without objectives
// are omitted; an empty registry yields an empty list.
func sloView(r *Registry) []QuerySLO {
	out := make([]QuerySLO, 0, 4)
	for _, q := range r.Queries() {
		tr := q.SLO()
		if tr == nil {
			continue
		}
		v := QuerySLO{Query: q.ID(), Key: q.Spec().Key}
		for _, sp := range tr.Specs() {
			v.Specs = append(v.Specs, sp.String())
		}
		v.Statuses = tr.StatusesFor(q.Spec().Key)
		events := tr.Log()
		if len(events) > viewAlertEvents {
			events = events[len(events)-viewAlertEvents:]
		}
		v.Events = events
		v.Dropped = tr.Dropped()
		out = append(out, v)
	}
	return out
}

type fleetView struct {
	Name  string  `json:"name"`
	Nodes int     `json:"nodes"`
	Phi   float64 `json:"phi"`
	Seed  int64   `json:"seed"`
}

type querySummary struct {
	ID        string  `json:"id"`
	Client    string  `json:"client,omitempty"`
	Fleet     string  `json:"fleet"`
	Algorithm string  `json:"algorithm"`
	Phi       float64 `json:"phi,omitempty"`
	K         int     `json:"k"`
	Round     int     `json:"round"`
	Failed    string  `json:"failed,omitempty"`
}

func summarize(q *Query) querySummary {
	s := querySummary{
		ID: q.ID(), Client: q.Spec().Client, Fleet: q.Spec().Fleet,
		Algorithm: q.Spec().Algorithm, Phi: q.Spec().Phi, K: q.K(),
	}
	if u, ok := q.Latest(); ok {
		s.Round = u.Round
	}
	if err := q.Err(); err != nil {
		s.Failed = err.Error()
	}
	return s
}

// QueryView is the GET /queries/{id} response body: the registration
// summary, the latest round's Update, sliding-window stats over the
// query's private series (rank error, joules and frames per round),
// and the standing alert state.
type QueryView struct {
	querySummary
	Window  int                           `json:"window"`
	Latest  *Update                       `json:"latest,omitempty"`
	Rounds  int                           `json:"rounds"` // series rounds ingested
	Stride  int                           `json:"stride"` // rounds per stored point
	Stats   map[string]series.WindowStats `json:"stats,omitempty"`
	Alerts  []alert.State                 `json:"alerts,omitempty"`
	Events  []alert.Event                 `json:"alert_events,omitempty"`
	Dropped int                           `json:"dropped_alert_events,omitempty"`
	SLO     []slo.Status                  `json:"slo,omitempty"`
}

// View assembles a query's full view — what GET /queries/{id} serves
// and the public Server.Status returns.
func View(q *Query) QueryView {
	v := QueryView{querySummary: summarize(q), Window: q.Spec().Window}
	if u, ok := q.Latest(); ok {
		v.Latest = &u
	}
	key, st := q.Spec().Key, q.Series()
	v.Rounds, v.Stride = st.Rounds(key)
	if v.Rounds > 0 {
		w := q.Spec().Window
		v.Stats = map[string]series.WindowStats{
			"rank_error":       st.Window(key, w, func(p series.Point) float64 { return float64(p.RankError) }),
			"joules_per_round": st.Window(key, w, series.Point.JoulesPerRound),
			"frames_per_round": st.Window(key, w, series.Point.FramesPerRound),
		}
	}
	if eng := q.Alerts(); eng != nil {
		v.Alerts = eng.States()
		events := eng.Log()
		if len(events) > viewAlertEvents {
			events = events[len(events)-viewAlertEvents:]
		}
		v.Events = events
		v.Dropped = eng.Dropped()
	}
	if tr := q.SLO(); tr != nil {
		v.SLO = tr.StatusesFor(key)
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already on the wire; an encode error just
	// means the client went away.
	_ = enc.Encode(v)
}
