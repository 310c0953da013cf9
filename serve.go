package wsnq

import (
	"fmt"
	"net/http"

	"wsnq/internal/experiment"
	"wsnq/internal/serve"
	"wsnq/internal/telemetry"
)

// This file is the public face of the query service layer
// (internal/serve): a long-running registry multiplexing many
// continuous quantile queries — each with its own φ, algorithm, alert
// rules, and isolated series state — over shared simulated
// deployments driven by one round clock. cmd/wsnq-serve wraps it in a
// ticker and an HTTP listener; embed it directly to host queries
// in-process.

// ServerConfig tunes a Server. The zero value is usable: 4096 queries,
// no per-client quota, 64-point per-query series, 16-update subscriber
// buffers.
type ServerConfig struct {
	// MaxQueries caps concurrently registered queries (admission
	// control); 0 selects the default (4096), negative means unlimited.
	MaxQueries int
	// ClientQuota caps queries per client name; 0 means unlimited.
	ClientQuota int
	// SeriesCapacity bounds each query's private series store (points;
	// the store downsamples past it, so memory stays fixed however
	// long the query lives). 0 selects the default (64).
	SeriesCapacity int
	// SubscriberBuffer is the per-subscription channel depth; a
	// subscriber that lags further behind loses the oldest pending
	// update (counted in Dropped) rather than stalling the round
	// clock. 0 selects the default (16).
	SubscriberBuffer int
	// Workers bounds the stepping pool each Advance fans protocol
	// instances out over; 0 uses one worker per CPU. Queries registered
	// before the same Advance with the same fleet, algorithm and rank
	// share one instance unless they declare adaptation policies.
	Workers int
	// SLO optionally declares default objectives (ParseSLOSpecs
	// grammar) evaluated for every query that does not override them;
	// each query gets its own tracker, so budgets stay isolated.
	SLO string
	// Adapt optionally declares default closed-loop adaptation policies
	// (the Controller grammar) for every query that does not override
	// them; each query gets its own controller acting on its own
	// protocol instance, with decisions stamped into its updates.
	Adapt string
	// Prof, when non-nil, attributes every query round's CPU time and
	// heap allocations to algorithm×phase buckets (stepping queries on
	// a single worker, like a profiled study), adds the runtime-health
	// columns to each query's series points, and backs the /profilez
	// endpoint of Handler's fall-through surface.
	Prof *Prof
}

// QuerySpec describes one continuous query registration with a Server.
type QuerySpec struct {
	// ID is the query's key; empty lets the server assign "q<seq>".
	ID string
	// Client attributes the query for per-client quotas.
	Client string
	// Fleet names the shared deployment (AddFleet) to run on.
	Fleet string
	// Phi is the quantile fraction in (0,1]; 0 uses the fleet
	// config's φ.
	Phi float64
	// Algorithm selects the protocol; all public Algorithm names work.
	Algorithm Algorithm
	// AlertRules optionally attaches streaming alert rules
	// (ParseAlertRules grammar) evaluated on the query's own rounds.
	AlertRules string
	// SLO optionally declares this query's objectives (ParseSLOSpecs
	// grammar), overriding the server-wide ServerConfig.SLO default.
	// Budget status is stamped into every QueryUpdate and served by
	// GET /slo and the query view.
	SLO string
	// Adapt optionally declares this query's closed-loop adaptation
	// policies (the Controller grammar), overriding the server-wide
	// ServerConfig.Adapt default. Fired actions apply to this query's
	// own protocol instance between rounds; the decisions appear in
	// QueryUpdate.Adapts.
	Adapt string
	// Window is the sliding-window length for the stats reported by
	// the query view; 0 selects the default (32).
	Window int
}

// QueryUpdate is one query round's published result; see the
// internal/serve documentation for field semantics.
type QueryUpdate = serve.Update

// QueryStatus is the HTTP query view: registration summary, latest
// update, window stats, and alert state.
type QueryStatus = serve.QueryView

// Server hosts registered continuous queries over shared fleets. All
// methods are safe for concurrent use. The server owns no clock:
// call Advance to tick every query one round (cmd/wsnq-serve does so
// on a ticker).
type Server struct {
	cfg ServerConfig
	reg *serve.Registry
}

// NewServer builds an empty query server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg, reg: serve.NewRegistry(serve.Config{
		MaxQueries:       cfg.MaxQueries,
		ClientQuota:      cfg.ClientQuota,
		SeriesCapacity:   cfg.SeriesCapacity,
		SubscriberBuffer: cfg.SubscriberBuffer,
		Workers:          cfg.Workers,
		SLO:              cfg.SLO,
		Adapt:            cfg.Adapt,
		Prof:             cfg.Prof,
		Resolve:          func(name string) (experiment.Factory, error) { return factory(Algorithm(name)) },
	})}
}

// AddFleet builds one shared deployment from cfg (run 0: its topology,
// placement, and measurement source) and registers it under name.
// Queries on the fleet compute bit-identical answers to a standalone
// Simulation built from the same cfg — the deployment construction and
// the per-round protocol semantics are the same code paths.
func (s *Server) AddFleet(name string, cfg Config) error {
	icfg, err := cfg.toInternal()
	if err != nil {
		return err
	}
	_, err = s.reg.AddFleet(name, icfg)
	return err
}

// Register admits one query and returns its ID. Admission control
// (MaxQueries, ClientQuota) rejects over-quota registrations; the
// query computes its first answer on the next Advance.
func (s *Server) Register(spec QuerySpec) (string, error) {
	ispec := serve.Spec{
		ID:        spec.ID,
		Client:    spec.Client,
		Fleet:     spec.Fleet,
		Phi:       spec.Phi,
		Algorithm: string(spec.Algorithm),
		Rules:     spec.AlertRules,
		SLO:       spec.SLO,
		Adapt:     spec.Adapt,
		Window:    spec.Window,
	}
	q, err := s.reg.Register(ispec)
	if err != nil {
		return "", err
	}
	return q.ID(), nil
}

// Deregister removes a query, closing its subscriptions.
func (s *Server) Deregister(id string) error { return s.reg.Deregister(id) }

// Advance ticks the round clock: every registered query executes one
// protocol round (initialization on its first tick) and publishes its
// update. Returns the number of queries stepped.
func (s *Server) Advance() int { return s.reg.Advance() }

// Round returns how many times Advance has run.
func (s *Server) Round() int { return s.reg.Round() }

// Queries returns the number of registered queries.
func (s *Server) Queries() int { return s.reg.Len() }

// Dropped returns the total updates shed to lagging subscribers.
func (s *Server) Dropped() int64 { return s.reg.Dropped() }

// Latest returns a query's most recent update; ok is false before its
// first Advance or for an unknown ID.
func (s *Server) Latest(id string) (QueryUpdate, bool) {
	q, ok := s.reg.Query(id)
	if !ok {
		return QueryUpdate{}, false
	}
	return q.Latest()
}

// Status returns the full query view served by GET /queries/{id}.
func (s *Server) Status(id string) (QueryStatus, error) {
	q, ok := s.reg.Query(id)
	if !ok {
		return QueryStatus{}, fmt.Errorf("wsnq: query %q: %w", id, serve.ErrNotFound)
	}
	return serve.View(q), nil
}

// Subscribe streams a query's round updates over a bounded channel:
// one QueryUpdate per Advance, oldest shed first if the consumer lags.
// cancel detaches the subscription; the channel also closes when the
// query deregisters.
func (s *Server) Subscribe(id string) (updates <-chan QueryUpdate, cancel func(), err error) {
	q, ok := s.reg.Query(id)
	if !ok {
		return nil, nil, fmt.Errorf("wsnq: query %q: %w", id, serve.ErrNotFound)
	}
	sub := q.Subscribe()
	return sub.Updates(), func() { q.Unsubscribe(sub) }, nil
}

// Handler returns the server's HTTP/JSON API — POST/DELETE /queries,
// GET /queries, GET /queries/{id}, GET /queries/{id}/subscribe
// (NDJSON), GET /fleets, GET /slo, GET /serve — with every other
// request falling through to a fixed surface: /metrics (the process
// runtime gauges), /profilez (with ServerConfig.Prof; 404 without),
// /debug/pprof, and the index at /. Hosted queries keep their series,
// alerts and objectives private and serve them through the query
// routes, so /health, /series, /dashboard and /alerts answer 404.
func (s *Server) Handler() http.Handler {
	return serve.Handler(s.reg, telemetry.Handler(telemetry.NewRegistry(), nil, nil, nil, s.cfg.Prof, nil))
}
