// Package serve hosts many continuous quantile queries on shared
// simulated deployments: a long-running registry where clients
// register and deregister queries — each with its own φ, algorithm,
// alert rules, and isolated series state — multiplexed over one or
// more immutable Deployments driven by a single round clock.
//
// The design leans on the same structural guarantee the experiment
// engine uses for comparisons: a Deployment (topology + measurement
// source) is read-only after construction, so any number of
// sim.Runtimes can execute against it concurrently, each with its own
// energy ledger, statistics, and loss stream. A query registered here
// therefore computes bit-identical per-round answers to a standalone
// single-query run with the same configuration and seed.
//
// Queries that would compute the same rounds share them. Queries
// registered before the same Advance with the same fleet, algorithm
// and rank k form one group, which owns the single runtime and
// experiment.Driver of their protocol instance; Advance steps each
// group once. A group admits members only until its first round, so a
// later registration with the same key starts a new group, and a group
// is dropped when its last member deregisters. Queries with an
// adaptation policy, and every query on a profiled registry, run alone,
// because the controller or profiling handle acts on its own instance.
// Everything a client reads stays per query: the Update stream, the
// series store (each member diffs the shared runtime's counters under
// its own key), alerts, SLOs, the controller, and subscribers.
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
	"wsnq/internal/trace"
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
	// per protocol instance up to the number of CPUs the runtime
	// schedules.
	Workers int
	// Prof, when non-nil, attributes every query round's CPU time and
	// heap allocations to algorithm×phase buckets and labels the
	// stepping goroutines (algorithm, fleet, query) for sampling
	// profiles. Like the experiment engine, a profiled registry steps
	// queries on a single worker: the process-global allocation
	// counters are only attributable when one round executes at a time.
	// Every query on a profiled registry runs its own protocol
	// instance, so each round is charged to one query.
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
	// private controller and protocol instance; the controller turns its
	// alert stream into protocol actions between rounds and stamps the
	// decisions onto its Updates.
	Adapt string
}

// Spec describes one continuous query registration; its fields form
// the HTTP contract. Each query builds its own series store, alert
// engine and SLO tracker from them (and the registry defaults), so no
// two queries share observability state.
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
// source every hosted protocol instance's runtime executes against,
// plus the configuration runtimes are derived with and an optional
// fault plan.
type Fleet struct {
	name   string
	cfg    experiment.Config
	dep    *experiment.Deployment
	faults *fault.Plan    // attached to every instance's runtime; nil for none
	arq    *sim.ARQConfig // nil selects sim.DefaultARQ
}

// Name returns the fleet's registry key.
func (f *Fleet) Name() string { return f.name }

// Config returns the fleet's base configuration.
func (f *Fleet) Config() experiment.Config { return f.cfg }

// Nodes returns the deployed node count (virtual children included).
func (f *Fleet) Nodes() int { return f.dep.Topology().N() }

// Registry multiplexes registered queries over shared fleets. All
// methods are safe for concurrent use; Advance steps every protocol
// instance one round on a bounded worker pool. Each query belongs to
// one group (see groupKey), which owns the runtime and driver it
// shares with its co-members; the query owns its series, alerts, SLOs,
// controller and subscribers.
type Registry struct {
	cfg     Config
	dropped atomic.Int64 // updates shed by lagging subscribers

	mu        sync.Mutex
	fleets    map[string]*Fleet
	queries   map[string]*Query
	clients   map[string]int
	open      map[groupKey]*group // shared groups still admitting members
	seq       int
	round     int // rounds advanced since start
	instances int // protocol instances the last Advance stepped
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
		open:    make(map[groupKey]*group),
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

// AddFaultyFleet is AddFleet with a fault plan: every protocol
// instance on the fleet attaches plan under arq (nil selects
// sim.DefaultARQ) with run 0's fault seed, so it recovers exactly like
// the engine's run 0.
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
// control (ErrQuota), resolves the fleet (ErrNotFound), builds the
// query's isolated series/alert/SLO state, and attaches it to a
// protocol instance: the open group of its key (see groupKey), or a
// fresh runtime and driver for the resolved algorithm over the fleet's
// shared deployment. The
// query computes its first answer on the next Advance. Registration
// itself is cheap — no protocol initialization runs here — so
// admission stays responsive under load.
func (r *Registry) Register(spec Spec) (*Query, error) {
	cfg, fleet, err := r.admit(&spec)
	if err != nil {
		return nil, err
	}
	q, err := buildQuery(spec, cfg, fleet, r.cfg)
	if err == nil {
		err = r.attach(q, cfg)
	}
	if err != nil {
		r.unadmit(spec)
		return nil, err
	}
	return q, nil
}

// admit reserves a registry slot under the lock: it defaults and
// validates the spec, checks quotas, and claims the ID and client
// count so that parsing the query's rules, objectives and policies can
// run unlocked.
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

// buildQuery assembles the query's own observability state: its series
// store, alert engine, SLO tracker, and adaptation controller. The
// protocol instance comes later, from attach.
func buildQuery(spec Spec, cfg experiment.Config, fleet *Fleet, rcfg Config) (*Query, error) {
	var eng *alert.Engine
	if spec.Rules != "" {
		rules, err := alert.ParseRules(spec.Rules)
		if err != nil {
			return nil, err
		}
		if eng, err = alert.NewEngine(rules...); err != nil {
			return nil, err
		}
		eng.DefaultBudget(energy.DefaultParams().InitialBudget)
	}
	var tracker *slo.Tracker
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
		k:      cfg.K(),
		store:  series.New(rcfg.SeriesCapacity),
		eng:    eng,
		slo:    tracker,
		ctl:    ctl,
		subBuf: rcfg.SubscriberBuffer,
	}
	if eng != nil {
		eng.StartRun(spec.Key)
	}
	if tracker != nil {
		tracker.StartRun(spec.Key)
	}
	return q, nil
}

// groupKey identifies the protocol instance a query may share. Queries
// registered before the same Advance with equal keys share one group:
// the fleet fixes the runtime (deployment, loss stream, fault plan and
// seed), the algorithm and k fix the protocol, and a group admits
// members only until its first round, so every member starts together.
// A query with an adaptation policy, and every query on a profiled
// registry, keys on its own ID and runs alone: its controller actuates,
// and its profiling handle attributes, its own protocol instance.
type groupKey struct {
	fleet, algorithm string
	k                int
	solo             string // the query ID for a query that runs alone
}

func (r *Registry) groupKey(q *Query) groupKey {
	if q.ctl != nil || r.cfg.Prof != nil {
		return groupKey{solo: q.id}
	}
	return groupKey{fleet: q.fleet.name, algorithm: q.spec.Algorithm, k: q.k}
}

// attach joins q to the open group of its key, or to a new group, and
// publishes q in the registry, under one hold of the registry lock so
// that no Advance can start the group in between.
func (r *Registry) attach(q *Query, cfg experiment.Config) error {
	key := r.groupKey(q)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.open[key]
	if g == nil {
		var err error
		if g, err = r.newGroup(q, cfg); err != nil {
			return err
		}
		if key.solo == "" {
			r.open[key] = g
		}
	}
	g.join(q)
	r.queries[q.id] = q
	return nil
}

// newGroup resolves q's algorithm and assembles a runtime over q's
// fleet and the driver of one protocol instance, with q's controller
// and (on a profiled registry) q's profiling handle; both exist only on
// groups q runs alone in.
func (r *Registry) newGroup(q *Query, cfg experiment.Config) (*group, error) {
	factory, err := r.cfg.Resolve(q.spec.Algorithm)
	if err != nil {
		return nil, err
	}
	rt, err := q.fleet.dep.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	g := &group{}
	rig := experiment.Rig{
		Trace:  g,
		Faults: q.fleet.faults, ARQ: q.fleet.arq, FaultSeed: experiment.FaultSeed(cfg, 0),
		Ctl: q.ctl,
	}
	if r.cfg.Prof != nil {
		// The handle stays closed between rounds — step brackets each
		// round with Switch/Close — so allocations made outside this
		// query's rounds (other queries, the HTTP layer) are never
		// charged to it.
		g.ph = r.cfg.Prof.Attach(context.Background(), q.spec.Algorithm,
			"algorithm", q.spec.Algorithm, "fleet", q.spec.Fleet, "query", q.id)
		rig.Prof = g.ph
	}
	if g.drv, err = experiment.NewDriver(rt, factory(), q.k, rig); err != nil {
		return nil, err
	}
	if g.ph != nil {
		g.ph.Close()
	}
	return g, nil
}

// Deregister removes a query, closes its subscriptions, and flushes
// its final round into its series.
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
	q.g.leave(q)
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

// Instances returns the number of protocol instances the last Advance
// stepped: at most the number of queries it stepped, fewer when
// queries share instances.
func (r *Registry) Instances() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instances
}

// Dropped returns the total updates shed by lagging subscribers.
func (r *Registry) Dropped() int64 { return r.dropped.Load() }

// Advance is the registry's round clock tick: every protocol instance
// executes one round against its fleet (initialization on its first
// tick) and publishes one Update to each of its queries' subscribers.
// Instances step concurrently on a bounded worker pool — safe because
// fleets are immutable and every instance owns its runtime — and an
// instance's rounds are totally ordered by its group's mutex, so
// concurrent Register and Subscribe calls interleave without tearing a
// round. Every group stops admitting members here. Returns the number
// of queries stepped.
func (r *Registry) Advance() int {
	r.mu.Lock()
	r.round++
	clear(r.open)
	queries := 0
	gs := make([]*group, 0, len(r.queries))
	for _, q := range r.queries {
		if q == nil {
			continue
		}
		queries++
		if q.g.tick != r.round {
			q.g.tick = r.round
			gs = append(gs, q.g)
		}
	}
	r.instances = len(gs)
	r.mu.Unlock()
	if len(gs) == 0 {
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
	if workers > len(gs) {
		workers = len(gs)
	}
	var wg sync.WaitGroup
	next := make(chan *group)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for g := range next {
				g.step(&r.dropped)
			}
		}()
	}
	for _, g := range gs {
		next <- g
	}
	close(next)
	wg.Wait()
	return queries
}

// group is one protocol instance — a runtime and the experiment.Driver
// that steps it over a fleet's shared deployment — and the queries that
// share it. It is the runtime's only trace collector: a fan-out over
// its members' series ingesters, each diffing the shared runtime's
// counters under its own query's key. A member joins before the
// group's first round and leaves when it deregisters; the group itself
// is garbage once no registered query references it.
type group struct {
	drv  *experiment.Driver
	ph   *prof.Handle // the sole member's handle on a profiled registry
	tick int          // the Advance that last collected it; guarded by Registry.mu

	mu      sync.Mutex // orders rounds, joins and leaves
	members []*Query
	failed  bool
}

// Collect forwards the runtime's round-level events to every member's
// ingester.
func (g *group) Collect(e trace.Event) {
	for _, q := range g.members {
		q.ing.Collect(e)
	}
}

// SkipsHops makes the group a trace.RoundCollector: its members'
// ingesters read no per-hop events, so the runtime builds none.
func (g *group) SkipsHops() {}

// join builds q's series ingester over the shared runtime and adds it
// to the fan-out. The runtime opened its current round when the group
// attached; the new ingester gets that round-start alone, since a
// second SetTrace would re-open the co-members' round too.
func (g *group) join(q *Query) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt := g.drv.Runtime()
	var sinks []series.Sink
	if q.eng != nil {
		sinks = append(sinks, q.eng.Observe)
	}
	if q.ctl != nil {
		// The controller rides the same ingester as the query's own
		// alert engine but evaluates its policies on a private one, so a
		// query's Rules and its adaptation never interfere.
		sinks = append(sinks, q.ctl.Observe)
	}
	// The sampling ingester diffs the runtime's cumulative counters at
	// the round boundaries AdvanceRound emits, as the experiment engine
	// and Observer.Collector do. A profiled
	// registry additionally folds the Go runtime's health counters into
	// each sample.
	sampler := experiment.SeriesSampler(rt)
	if g.ph != nil {
		sampler = experiment.ProfSeriesSampler(rt)
	}
	if q.slo != nil {
		// Fold the serve-layer columns into each round's sample: the
		// cumulative answer latency (diffed per round by the ingester)
		// and the post-evaluation SLO gauges. The closing sample of
		// round r is read during round r+1's AdvanceRound, after round
		// r's evaluation, so the gauges line up with their round. The
		// wrap costs one closure per sample and exists only on queries
		// with objectives, keeping the no-SLO step path untouched.
		base, tracker, key := sampler, q.slo, q.spec.Key
		sampler = func() series.Totals {
			t := base()
			t.StepMs = q.stepMs
			t.SLOBurn, t.SLOSpend = tracker.Gauges(key)
			return t
		}
	}
	q.g = g
	q.ing = q.store.IngestTotals(q.spec.Key, sampler, sinks...)
	q.ing.Collect(trace.Event{Kind: trace.KindRoundStart, Round: rt.Round(), Node: -1})
	g.members = append(g.members, q)
}

// leave removes q from the fan-out and flushes q's final round into
// q's own series; the co-members' open round is untouched. The
// profiling handle is closed between rounds, so nothing else needs
// flushing.
func (g *group) leave(q *Query) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == q {
			g.members = append(g.members[:i], g.members[i+1:]...)
			q.ing.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: g.drv.Runtime().Round(), Node: -1})
			return
		}
	}
}

// step executes one protocol round through the group's driver — the
// same round loop and recovery contract as the experiment engine and
// Simulation: the first round initializes, a repair or a desync under
// loss or faults replays the initialization (Update.Reinit), and any
// other error parks the group and every member. The round's decision
// is traced — feeding each member's series ingester and alert sinks —
// and each member publishes its Update.
func (g *group) step(dropped *atomic.Int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.members) == 0 || g.failed {
		return
	}
	rt := g.drv.Runtime()
	if g.ph != nil {
		// Open this round's attribution span on the stepping goroutine
		// and flush it when the round ends, so the interleaved rounds
		// of other queries are never charged to this query's buckets.
		g.ph.Switch(rt.Phase())
		defer g.ph.Close()
	}
	var began time.Time
	for _, q := range g.members {
		if q.slo != nil {
			// The latency objective wants wall-clock time, but it must
			// never leak into the deterministic state: it feeds only
			// the SLO sample and the series StepMs column, both absent
			// from recordings of unserved runs.
			began = time.Now()
			break
		}
	}
	v, err := g.drv.Step()
	if err != nil {
		round := g.drv.Round()
		g.failed = true
		for _, q := range g.members {
			q.mu.Lock()
			q.failed = err
			q.publish(Update{Query: q.id, Round: round, Failed: err.Error()}, dropped)
			q.mu.Unlock()
		}
		return
	}
	u := Update{
		Round:     v.Round,
		Quantile:  v.Answer,
		Oracle:    rt.Oracle(v.K),
		RankError: v.RankErr,
		Joules:    rt.Ledger().TotalSpent(),
		Frames:    rt.Stats().FramesSent,
		Degraded:  rt.CoverageDeficit() > 0,
		Staleness: rt.Staleness(),
		Missing:   rt.Missing(),
		Reinit:    v.Reinit,
	}
	var latency float64
	if !began.IsZero() {
		latency = float64(time.Since(began)) / float64(time.Millisecond)
	}
	for _, q := range g.members {
		q.finish(u, latency, rt.N(), dropped)
	}
}

// Query is one registered continuous quantile query: a member of the
// group that runs its protocol instance, plus the query's isolated
// series store, alert engine, SLO tracker, controller, and subscriber
// list. The group owns the runtime and driver; everything a client
// reads is per query.
type Query struct {
	id     string
	spec   Spec
	fleet  *Fleet
	k      int
	subBuf int
	store  *series.Store
	eng    *alert.Engine
	slo    *slo.Tracker
	ctl    *adapt.Controller

	// Round state, set at join and then written only under g.mu.
	g       *group
	ing     trace.Collector // the query's series ingester in g's fan-out
	alertAt int             // absolute alert-log cursor (alert.Engine.LogSince)
	sloAt   int             // absolute SLO-event cursor (slo.Tracker.LogSince)
	adaptAt int             // absolute decision-log cursor (adapt.Controller.DecisionsSince)
	stepMs  float64         // cumulative answer latency, sampled into the series

	mu      sync.Mutex
	closed  bool
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
func (q *Query) K() int { return q.k }

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

// finish completes the shared round's Update u with q's own alert,
// adaptation and SLO state and publishes it. latency is the round's
// answer latency in ms (measured only when a member has objectives)
// and n the fleet's sensor count. Callers hold q.g.mu.
func (q *Query) finish(u Update, latency float64, n int, dropped *atomic.Int64) {
	u.Query = q.id
	if q.eng != nil {
		u.Alerts, q.alertAt = q.eng.LogSince(q.alertAt)
	}
	if q.ctl != nil {
		u.Adapts, q.adaptAt = q.ctl.DecisionsSince(q.adaptAt)
	}
	if q.slo != nil {
		u.LatencyMs = latency
		q.stepMs += latency
		q.slo.Observe(q.spec.Key, slo.Sample{
			Round:     u.Round,
			RankError: u.RankError,
			N:         n,
			Degraded:  u.Degraded,
			Staleness: u.Staleness,
			LatencyMs: latency,
		})
		u.SLO = q.slo.StatusesFor(q.spec.Key)
		u.SLOEvents, q.sloAt = q.slo.LogSince(q.sloAt)
	}
	q.mu.Lock()
	q.publish(u, dropped)
	q.mu.Unlock()
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

// close closes every subscription; the query has left its group.
func (q *Query) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
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
