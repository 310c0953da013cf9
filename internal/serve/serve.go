// Package serve hosts many continuous quantile queries on shared
// simulated deployments: a long-running registry where clients
// register and deregister queries — each with its own φ, algorithm,
// alert rules, and isolated series state — multiplexed over one or
// more immutable Deployments driven by a single round clock.
//
// The design leans on the same structural guarantee the experiment
// engine uses for comparisons: a Deployment (topology + measurement
// source) is read-only after construction, so any number of per-query
// sim.Runtimes can execute against it concurrently, each with its own
// energy ledger, statistics, and loss stream. A query registered here
// therefore computes bit-identical per-round answers to a standalone
// single-query run with the same configuration and seed.
//
// The registry enforces admission control (a global query cap and
// per-client quotas) and backpressure (bounded subscriber channels
// that drop the oldest pending update rather than stall the round
// clock, counting what they shed).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/energy"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/prof"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/slo"
)

// Admission and sizing defaults.
const (
	DefaultMaxQueries       = 4096
	DefaultSeriesCapacity   = 64
	DefaultSubscriberBuffer = 16
	DefaultWindow           = 32
)

// Registration errors, wrapped with context; test with errors.Is. The
// HTTP layer maps them to 404 / 409 / 429.
var (
	ErrNotFound = errors.New("not found")
	ErrExists   = errors.New("already exists")
	ErrQuota    = errors.New("quota exceeded")
)

// Config tunes a Registry. The zero value is usable: defaults above,
// no per-client quota, and the standard §5.1.6 algorithm line-up.
type Config struct {
	// MaxQueries caps concurrently registered queries (admission
	// control); 0 selects DefaultMaxQueries, negative means unlimited.
	MaxQueries int
	// ClientQuota caps queries per client name; 0 means unlimited.
	ClientQuota int
	// SeriesCapacity bounds each query's private series store (points
	// per key; the store downsamples past it). 0 selects
	// DefaultSeriesCapacity.
	SeriesCapacity int
	// SubscriberBuffer is the per-subscription channel depth; when a
	// subscriber lags further behind, the oldest pending update is
	// dropped and counted. 0 selects DefaultSubscriberBuffer.
	SubscriberBuffer int
	// Workers bounds the per-Advance stepping pool; 0 uses one worker
	// per query up to the number of CPUs the runtime schedules.
	Workers int
	// Prof, when non-nil, attributes every query round's CPU time and
	// heap allocations to algorithm×phase buckets and labels the
	// stepping goroutines (algorithm, fleet, query) for sampling
	// profiles. Like the experiment engine, a profiled registry steps
	// queries on a single worker: the process-global allocation
	// counters are only attributable when one round executes at a time.
	Prof *prof.Recorder
	// Resolve maps an algorithm name to its constructor. Nil selects
	// the standard line-up (experiment.StandardAlgorithms).
	Resolve func(name string) (experiment.Factory, error)
	// SLO, when non-empty, is the registry-default service-level
	// objective spec (slo.ParseSpecs grammar) attached to every query
	// that does not declare its own; queries evaluate their objectives
	// at each Advance and stamp budget status into their Updates.
	SLO string
	// Adapt, when non-empty, is the registry-default closed-loop
	// adaptation policy spec (adapt.Parse grammar) attached to every
	// query that does not declare its own: each such query gets a
	// private controller that turns its alert stream into protocol
	// actions between rounds and stamps the decisions onto its Updates.
	Adapt string
}

// Spec describes one continuous query registration. The wire-visible
// fields form the HTTP contract; Series, Alerts, and the alert budget
// are injected by in-process callers (the public wsnq.Server passes
// the Observer bundle through them) and built from Rules/defaults
// otherwise.
type Spec struct {
	// ID is the query's registry key; empty lets the registry assign
	// "q<seq>". A duplicate ID is rejected with ErrExists.
	ID string `json:"id,omitempty"`
	// Client attributes the query for per-client quotas.
	Client string `json:"client,omitempty"`
	// Fleet names the shared deployment to run on.
	Fleet string `json:"fleet"`
	// Phi is the quantile fraction in (0,1]; 0 means the fleet
	// config's φ.
	Phi float64 `json:"phi,omitempty"`
	// Algorithm is the protocol name (TAG, POS, LCLL-H, LCLL-S, HBC,
	// IQ, ...; whatever Config.Resolve accepts).
	Algorithm string `json:"algorithm"`
	// Rules is an optional alert rule spec (alert.ParseRules grammar);
	// matching alert state is evaluated per query round.
	Rules string `json:"rules,omitempty"`
	// Window is the sliding-window length (points) for the stats in
	// query views; 0 selects DefaultWindow.
	Window int `json:"window,omitempty"`
	// Key labels the query's series; empty selects "<id>/<algorithm>".
	Key string `json:"key,omitempty"`
	// SLO declares the query's service-level objectives (slo.ParseSpecs
	// grammar, e.g. "rank epsilon=0.02; latency ms=50"); empty inherits
	// the registry default (Config.SLO).
	SLO string `json:"slo,omitempty"`
	// Adapt declares the query's closed-loop adaptation policies
	// (adapt.Parse grammar, e.g. "on storm do switch iq"); empty
	// inherits the registry default (Config.Adapt). Fired actions apply
	// to this query's own protocol instance between rounds and appear
	// as Update.Adapts.
	Adapt string `json:"adapt,omitempty"`

	// Series, when non-nil, receives the query's per-round points
	// instead of a registry-built private store.
	Series *series.Store `json:"-"`
	// Alerts, when non-nil, evaluates the query's rounds instead of an
	// engine built from Rules.
	Alerts *alert.Engine `json:"-"`
	// SLOTracker, when non-nil, evaluates the query's rounds instead of
	// a tracker built from SLO / the registry default.
	SLOTracker *slo.Tracker `json:"-"`
}

// Update is one query round's published result: the answer the
// algorithm reported at the root, its oracle error, and the cumulative
// cost counters — plus any alert events the round fired. Subscribers
// receive one Update per Advance; the freshest one is also retained
// for polling reads.
type Update struct {
	Query     string  `json:"query"`
	Round     int     `json:"round"` // per-query round, 0 = init round
	Quantile  int     `json:"quantile"`
	Oracle    int     `json:"oracle"`
	RankError int     `json:"rank_error"`
	Joules    float64 `json:"joules"` // cumulative network-wide drain
	Frames    int     `json:"frames"` // cumulative link-layer frames

	// Degraded-answer status (PR 5 semantics, zero on fully covered
	// rounds): whether the answer was computed with incomplete sensor
	// coverage, how many rounds since the last fully covered answer,
	// and how many sensors were unreachable.
	Degraded  bool `json:"degraded,omitempty"`
	Staleness int  `json:"staleness,omitempty"`
	Missing   int  `json:"missing,omitempty"`
	// Reinit reports that the round replayed the protocol's
	// initialization after a tree repair or a desynchronization under
	// loss or faults (RoundResult.Reinit semantics).
	Reinit bool `json:"reinit,omitempty"`

	// LatencyMs is the wall-clock time this round's answer took to
	// compute; measured (and the SLO fields below populated) only on
	// queries with attached service-level objectives.
	LatencyMs float64 `json:"latency_ms,omitempty"`

	Alerts []alert.Event `json:"alerts,omitempty"`
	// Adapts lists the closed-loop controller decisions applied before
	// this round's protocol work — decided on the previous round's data
	// (queries with adaptation policies only).
	Adapts []adapt.Decision `json:"adapts,omitempty"`
	// SLO is the refreshed budget status of each of the query's
	// objectives after this round; SLOEvents are the burn-rate level
	// transitions the round fired, exemplars included.
	SLO       []slo.Status `json:"slo,omitempty"`
	SLOEvents []slo.Event  `json:"slo_events,omitempty"`
	// Failed carries the error text of a query whose round failed
	// beyond the recovery contract — an initialization or
	// re-initialization that failed, or a step error on a loss-free,
	// fault-free runtime; the query stops advancing but stays
	// registered for inspection until deregistered.
	Failed string `json:"failed,omitempty"`
}

// Fleet is one shared deployment: an immutable topology + measurement
// source every hosted query's runtime executes against, plus the
// configuration runtimes are derived with and an optional fault plan.
type Fleet struct {
	name   string
	cfg    experiment.Config
	dep    *experiment.Deployment
	faults *fault.Plan    // attached to every query's runtime; nil for none
	arq    *sim.ARQConfig // nil selects sim.DefaultARQ
}

// Name returns the fleet's registry key.
func (f *Fleet) Name() string { return f.name }

// Config returns the fleet's base configuration.
func (f *Fleet) Config() experiment.Config { return f.cfg }

// Nodes returns the deployed node count (virtual children included).
func (f *Fleet) Nodes() int { return f.dep.Topology().N() }

// Registry multiplexes registered queries over shared fleets. All
// methods are safe for concurrent use; Advance steps every query one
// round on a bounded worker pool.
type Registry struct {
	cfg     Config
	dropped atomic.Int64 // updates shed by lagging subscribers

	mu      sync.Mutex
	fleets  map[string]*Fleet
	queries map[string]*Query
	clients map[string]int
	seq     int
	round   int // rounds advanced since start
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxQueries == 0 {
		cfg.MaxQueries = DefaultMaxQueries
	}
	if cfg.SeriesCapacity <= 0 {
		cfg.SeriesCapacity = DefaultSeriesCapacity
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = DefaultSubscriberBuffer
	}
	if cfg.Resolve == nil {
		cfg.Resolve = standardResolve
	}
	return &Registry{
		cfg:     cfg,
		fleets:  make(map[string]*Fleet),
		queries: make(map[string]*Query),
		clients: make(map[string]int),
	}
}

// defaultWorkers is the stepping-pool width when Config.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// standardResolve maps the §5.1.6 evaluation line-up by display name.
func standardResolve(name string) (experiment.Factory, error) {
	for _, nf := range experiment.StandardAlgorithms() {
		if nf.Name == name {
			return nf.New, nil
		}
	}
	return nil, fmt.Errorf("serve: unknown algorithm %q", name)
}

// AddFleet builds the shared deployment of cfg's run 0 and registers
// it under name. Queries reference it by name; the deployment is
// immutable, so adding a fleet is the only expensive construction the
// registry performs.
func (r *Registry) AddFleet(name string, cfg experiment.Config) (*Fleet, error) {
	return r.AddFaultyFleet(name, cfg, nil, nil)
}

// AddFaultyFleet is AddFleet with a fault plan: every query on the
// fleet attaches plan under arq (nil selects sim.DefaultARQ) with run
// 0's fault seed, so it recovers exactly like the engine's run 0.
func (r *Registry) AddFaultyFleet(name string, cfg experiment.Config, plan *fault.Plan, arq *sim.ARQConfig) (*Fleet, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty fleet name")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dep, err := experiment.BuildDeployment(cfg, 0)
	if err != nil {
		return nil, err
	}
	f := &Fleet{name: name, cfg: cfg, dep: dep, faults: plan, arq: arq}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fleets[name]; dup {
		return nil, fmt.Errorf("serve: fleet %q: %w", name, ErrExists)
	}
	r.fleets[name] = f
	return f, nil
}

// Fleet looks a fleet up by name.
func (r *Registry) Fleet(name string) (*Fleet, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fleets[name]
	return f, ok
}

// Fleets returns the registered fleets sorted by name.
func (r *Registry) Fleets() []*Fleet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Fleet, 0, len(r.fleets))
	for _, f := range r.fleets {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Register admits one query: validates the spec against admission
// control (ErrQuota), resolves fleet (ErrNotFound) and algorithm,
// assembles a fresh runtime over the fleet's shared deployment, and
// attaches the query's isolated series/alert state. The query computes
// its first answer on the next Advance. Registration itself is cheap —
// no protocol initialization runs here — so admission stays responsive
// under load.
func (r *Registry) Register(spec Spec) (*Query, error) {
	cfg, fleet, err := r.admit(&spec)
	if err != nil {
		return nil, err
	}
	q, err := buildQuery(spec, cfg, fleet, r.cfg)
	if err != nil {
		r.unadmit(spec)
		return nil, err
	}
	r.mu.Lock()
	r.queries[spec.ID] = q
	r.mu.Unlock()
	return q, nil
}

// admit reserves a registry slot under the lock: it defaults and
// validates the spec, checks quotas, and claims the ID and client
// count so the expensive runtime assembly can run unlocked.
func (r *Registry) admit(spec *Spec) (experiment.Config, *Fleet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fleet, ok := r.fleets[spec.Fleet]
	if !ok {
		return experiment.Config{}, nil, fmt.Errorf("serve: fleet %q: %w", spec.Fleet, ErrNotFound)
	}
	// A duplicate ID outranks the quota checks: re-registering an
	// existing query is a conflict (409) even on a full registry.
	if spec.ID != "" {
		if _, dup := r.queries[spec.ID]; dup {
			return experiment.Config{}, nil, fmt.Errorf("serve: query %q: %w", spec.ID, ErrExists)
		}
	}
	if r.cfg.MaxQueries >= 0 && len(r.queries) >= r.cfg.MaxQueries {
		return experiment.Config{}, nil, fmt.Errorf("serve: %d queries registered: %w", len(r.queries), ErrQuota)
	}
	if r.cfg.ClientQuota > 0 && r.clients[spec.Client] >= r.cfg.ClientQuota {
		return experiment.Config{}, nil, fmt.Errorf("serve: client %q at quota %d: %w", spec.Client, r.cfg.ClientQuota, ErrQuota)
	}
	if spec.ID == "" {
		r.seq++
		spec.ID = fmt.Sprintf("q%d", r.seq)
	}
	cfg := fleet.cfg
	if spec.Phi != 0 {
		cfg.Phi = spec.Phi
	}
	if cfg.Phi <= 0 || cfg.Phi > 1 {
		return experiment.Config{}, nil, fmt.Errorf("serve: phi %v out of (0,1]", cfg.Phi)
	}
	if spec.Window <= 0 {
		spec.Window = DefaultWindow
	}
	if spec.Key == "" {
		spec.Key = spec.ID + "/" + spec.Algorithm
	}
	// Claim the slot; a failed build releases it via unadmit.
	r.queries[spec.ID] = nil
	r.clients[spec.Client]++
	return cfg, fleet, nil
}

// unadmit releases a claimed slot after a failed build.
func (r *Registry) unadmit(spec Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.queries, spec.ID)
	if r.clients[spec.Client]--; r.clients[spec.Client] <= 0 {
		delete(r.clients, spec.Client)
	}
}

// buildQuery assembles the per-query runtime and observability state.
func buildQuery(spec Spec, cfg experiment.Config, fleet *Fleet, rcfg Config) (*Query, error) {
	factory, err := rcfg.Resolve(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	rt, err := fleet.dep.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	eng := spec.Alerts
	if eng == nil && spec.Rules != "" {
		rules, err := alert.ParseRules(spec.Rules)
		if err != nil {
			return nil, err
		}
		if eng, err = alert.NewEngine(rules...); err != nil {
			return nil, err
		}
		eng.DefaultBudget(energy.DefaultParams().InitialBudget)
	}
	store := spec.Series
	if store == nil {
		store = series.New(rcfg.SeriesCapacity)
	}
	tracker := spec.SLOTracker
	if tracker == nil {
		sloSpec := spec.SLO
		if sloSpec == "" {
			sloSpec = rcfg.SLO
		}
		if sloSpec != "" {
			specs, err := slo.ParseSpecs(sloSpec)
			if err != nil {
				return nil, err
			}
			if tracker, err = slo.NewTracker(specs...); err != nil {
				return nil, err
			}
		}
	}
	var ctl *adapt.Controller
	adaptSpec := spec.Adapt
	if adaptSpec == "" {
		adaptSpec = rcfg.Adapt
	}
	if adaptSpec != "" {
		policies, err := adapt.Parse(adaptSpec)
		if err != nil {
			return nil, err
		}
		if len(policies) > 0 {
			if ctl, err = adapt.NewController(cfg.Energy.InitialBudget, policies...); err != nil {
				return nil, err
			}
		}
	}
	q := &Query{
		id:     spec.ID,
		spec:   spec,
		fleet:  fleet,
		store:  store,
		eng:    eng,
		slo:    tracker,
		ctl:    ctl,
		subBuf: rcfg.SubscriberBuffer,
	}
	var sinks []series.Sink
	if eng != nil {
		eng.StartRun(spec.Key)
		sinks = append(sinks, eng.Observe)
	}
	if ctl != nil {
		// The controller rides the same ingester as the query's own
		// alert engine but evaluates its policies on a private one, so a
		// query's Rules and its adaptation never interfere.
		sinks = append(sinks, ctl.Observe)
	}
	// The sampling ingester diffs the runtime's cumulative counters at
	// the round boundaries AdvanceRound emits — the same fast path the
	// experiment engine and Simulation.SeriesCollector use. A profiled
	// registry additionally folds the Go runtime's health counters into
	// each sample and attaches per-phase attribution to the runtime.
	sampler := experiment.SeriesSampler(rt)
	if rcfg.Prof != nil {
		sampler = experiment.ProfSeriesSampler(rt)
	}
	if tracker != nil {
		// Fold the serve-layer columns into each round's sample: the
		// cumulative answer latency (diffed per round by the ingester)
		// and the post-evaluation SLO gauges. The closing sample of
		// round r is read during round r+1's AdvanceRound, after round
		// r's evaluation, so the gauges line up with their round. The
		// wrap costs one closure per sample and exists only on queries
		// with objectives, keeping the no-SLO step path untouched.
		tracker.StartRun(spec.Key)
		base := sampler
		key := spec.Key
		sampler = func() series.Totals {
			t := base()
			t.StepMs = q.stepMs
			t.SLOBurn, t.SLOSpend = tracker.Gauges(key)
			return t
		}
	}
	rig := experiment.Rig{
		Trace:  store.IngestTotals(spec.Key, sampler, sinks...),
		Faults: fleet.faults, ARQ: fleet.arq, FaultSeed: experiment.FaultSeed(cfg, 0),
		Ctl: ctl,
	}
	if rcfg.Prof != nil {
		// The handle stays closed between rounds — step brackets each
		// round with Switch/Close — so allocations made outside this
		// query's rounds (other queries, the HTTP layer) are never
		// charged to it.
		q.ph = rcfg.Prof.Attach(context.Background(), spec.Algorithm,
			"algorithm", spec.Algorithm, "fleet", spec.Fleet, "query", spec.ID)
		rig.Prof = q.ph
	}
	if q.drv, err = experiment.NewDriver(rt, factory(), cfg.K(), rig); err != nil {
		return nil, err
	}
	if q.ph != nil {
		q.ph.Close()
	}
	return q, nil
}

// Deregister removes a query, closes its subscriptions, and flushes
// the final round into its series.
func (r *Registry) Deregister(id string) error {
	r.mu.Lock()
	q, ok := r.queries[id]
	if !ok || q == nil {
		r.mu.Unlock()
		return fmt.Errorf("serve: query %q: %w", id, ErrNotFound)
	}
	delete(r.queries, id)
	if r.clients[q.spec.Client]--; r.clients[q.spec.Client] <= 0 {
		delete(r.clients, q.spec.Client)
	}
	r.mu.Unlock()
	q.close()
	return nil
}

// Query looks a registered query up by ID.
func (r *Registry) Query(id string) (*Query, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queries[id]
	if !ok || q == nil {
		return nil, false
	}
	return q, true
}

// Queries returns the registered queries sorted by ID.
func (r *Registry) Queries() []*Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Query, 0, len(r.queries))
	for _, q := range r.queries {
		if q != nil {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Len returns the number of registered queries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// Round returns how many times Advance has run.
func (r *Registry) Round() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round
}

// Dropped returns the total updates shed by lagging subscribers.
func (r *Registry) Dropped() int64 { return r.dropped.Load() }

// Advance is the registry's round clock tick: every registered query
// executes one protocol round against its fleet (initialization on its
// first tick) and publishes an Update to its subscribers. Queries step
// concurrently on a bounded worker pool — safe because fleets are
// immutable and every query owns its runtime — and a query's rounds
// are totally ordered by its own mutex, so concurrent Register and
// Subscribe calls interleave without tearing a round. Returns the
// number of queries stepped.
func (r *Registry) Advance() int {
	r.mu.Lock()
	r.round++
	qs := make([]*Query, 0, len(r.queries))
	for _, q := range r.queries {
		if q != nil {
			qs = append(qs, q)
		}
	}
	r.mu.Unlock()
	if len(qs) == 0 {
		return 0
	}
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if r.cfg.Prof != nil {
		// Attribution diffs process-global allocation counters around
		// each phase span; concurrent rounds would cross-charge.
		workers = 1
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	var wg sync.WaitGroup
	next := make(chan *Query)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for q := range next {
				q.step(&r.dropped)
			}
		}()
	}
	for _, q := range qs {
		next <- q
	}
	close(next)
	wg.Wait()
	return len(qs)
}

// Query is one registered continuous quantile query: a private runtime
// and protocol instance (driven by an experiment.Driver) over the
// fleet's shared deployment, plus the query's isolated series store,
// alert engine, and subscriber list.
type Query struct {
	id     string
	spec   Spec
	fleet  *Fleet
	subBuf int

	mu      sync.Mutex
	drv     *experiment.Driver
	ph      *prof.Handle
	store   *series.Store
	eng     *alert.Engine
	slo     *slo.Tracker
	ctl     *adapt.Controller
	closed  bool
	alertAt int     // absolute alert-log cursor (alert.Engine.LogSince)
	sloAt   int     // absolute SLO-event cursor (slo.Tracker.LogSince)
	adaptAt int     // absolute decision-log cursor (adapt.Controller.DecisionsSince)
	stepMs  float64 // cumulative answer latency, sampled into the series
	last    Update
	hasLast bool
	failed  error
	subs    []*Subscription
}

// ID returns the query's registry key.
func (q *Query) ID() string { return q.id }

// Spec returns the registration spec (defaults applied).
func (q *Query) Spec() Spec { return q.spec }

// K returns the queried rank derived from φ and the fleet size.
func (q *Query) K() int { return q.drv.K() }

// Latest returns the most recent Update; ok is false before the first
// Advance after registration.
func (q *Query) Latest() (Update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.last, q.hasLast
}

// Err returns the protocol error that stopped the query, if any.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// Series exposes the query's series store for snapshots and window
// stats.
func (q *Query) Series() *series.Store { return q.store }

// Alerts returns the query's alert engine (nil without rules).
func (q *Query) Alerts() *alert.Engine { return q.eng }

// SLO returns the query's service-level objective tracker (nil for a
// query without objectives).
func (q *Query) SLO() *slo.Tracker { return q.slo }

// step executes one protocol round through the query's driver — the
// same round loop and recovery contract as the experiment engine and
// Simulation: the first round initializes, a repair or a desync under
// loss or faults replays the initialization (Update.Reinit), and any
// other error parks the query. The round's decision is traced —
// feeding the series ingester and alert sinks — and the resulting
// Update published.
func (q *Query) step(dropped *atomic.Int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.failed != nil {
		return
	}
	rt := q.drv.Runtime()
	if q.ph != nil {
		// Open this round's attribution span on the stepping goroutine
		// and flush it when the round ends, so the interleaved rounds
		// of other queries are never charged to this query's buckets.
		q.ph.Switch(rt.Phase())
		defer q.ph.Close()
	}
	var began time.Time
	if q.slo != nil {
		// The latency objective wants wall-clock time, but it must
		// never leak into the deterministic state: it feeds only the
		// SLO sample and the series StepMs column, both absent from
		// recordings of unserved runs.
		began = time.Now()
	}
	v, reinit, err := q.drv.Step()
	round := q.drv.Round()
	if err != nil {
		q.failed = err
		q.publish(Update{Query: q.id, Round: round, Failed: err.Error()}, dropped)
		return
	}
	k := q.drv.K()
	u := Update{
		Query:     q.id,
		Round:     round,
		Quantile:  v,
		Oracle:    rt.Oracle(k),
		RankError: rt.RankErrorOf(k, v),
		Joules:    rt.Ledger().TotalSpent(),
		Frames:    rt.Stats().FramesSent,
		Degraded:  rt.CoverageDeficit() > 0,
		Staleness: rt.Staleness(),
		Missing:   rt.Missing(),
		Reinit:    reinit,
	}
	if q.eng != nil {
		u.Alerts, q.alertAt = q.eng.LogSince(q.alertAt)
	}
	if q.ctl != nil {
		u.Adapts, q.adaptAt = q.ctl.DecisionsSince(q.adaptAt)
	}
	if q.slo != nil {
		u.LatencyMs = float64(time.Since(began)) / float64(time.Millisecond)
		q.stepMs += u.LatencyMs
		q.slo.Observe(q.spec.Key, slo.Sample{
			Round:     round,
			RankError: u.RankError,
			N:         rt.N(),
			Degraded:  u.Degraded,
			Staleness: u.Staleness,
			LatencyMs: u.LatencyMs,
		})
		u.SLO = q.slo.StatusesFor(q.spec.Key)
		u.SLOEvents, q.sloAt = q.slo.LogSince(q.sloAt)
	}
	q.publish(u, dropped)
}

// publish retains u as the latest update and fans it out to the
// subscribers, shedding the oldest pending update of any that lag
// (bounded channels keep the round clock from ever blocking on a slow
// reader). Callers hold q.mu.
func (q *Query) publish(u Update, dropped *atomic.Int64) {
	q.last, q.hasLast = u, true
	for _, s := range q.subs {
		for {
			select {
			case s.ch <- u:
			default:
				select {
				case <-s.ch:
					dropped.Add(1)
					s.dropped++
				default:
				}
				continue
			}
			break
		}
	}
}

// close flushes the final round into the series and closes every
// subscription.
func (q *Query) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.drv.Runtime().EndTrace()
	for _, s := range q.subs {
		close(s.ch)
	}
	q.subs = nil
}

// Subscription is one bounded stream of a query's round updates.
type Subscription struct {
	q       *Query
	ch      chan Update
	dropped int
}

// Updates returns the receive channel; it is closed when the
// subscription is cancelled or the query deregistered.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Dropped reports how many updates this subscriber lost to
// backpressure shedding.
func (s *Subscription) Dropped() int {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	return s.dropped
}

// Subscribe attaches a bounded update stream to the query. Cancel it
// with Unsubscribe; a deregistered query closes it.
func (q *Query) Subscribe() *Subscription {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := &Subscription{q: q, ch: make(chan Update, q.subBuf)}
	if q.closed {
		close(s.ch)
		return s
	}
	q.subs = append(q.subs, s)
	return s
}

// Unsubscribe detaches s and closes its channel; a second call is a
// no-op.
func (q *Query) Unsubscribe(s *Subscription) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, cur := range q.subs {
		if cur == s {
			q.subs = append(q.subs[:i], q.subs[i+1:]...)
			close(s.ch)
			return
		}
	}
}
