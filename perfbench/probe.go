package main

import (
	"context"
	"fmt"
	"time"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/prof"
	"wsnq/internal/protocol"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/slo"
	"wsnq/internal/trace"
)

// The observability stack of the chaos scenario, which every
// workload's observability probe also feeds its point stream through.
const (
	obsRules  = "storm; excursion; orphan"
	obsSLOs   = "rank; fresh"
	obsPolicy = "on storm(warn) do widen 1.5 cooldown 6; on orphan(warn) do reroot cooldown 10"
)

// probeAlgorithms are the protocols the per-layer probe drives on
// every workload's reference deployment.
var probeAlgorithms = []string{"TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ", "ADAPT"}

// probePhases lists the runtime phases a protocol's CPU share is
// reported for: the ones its steady rounds use.
var probePhases = map[string][]string{
	"TAG":    {sim.PhaseInit, sim.PhaseCollect},
	"POS":    {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement, sim.PhaseFilter},
	"LCLL-H": {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement},
	"LCLL-S": {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement},
	"HBC":    {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement, sim.PhaseFilter},
	"IQ":     {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement, sim.PhaseFilter},
	"ADAPT":  {sim.PhaseInit, sim.PhaseValidation, sim.PhaseRefinement, sim.PhaseFilter},
}

// probeTarget is the deployment a workload's traced run drives the
// protocol layers on: the workload's own configuration, with its loss,
// fault plan and ARQ policy.
type probeTarget struct {
	cfg    experiment.Config
	rounds int
	faults *fault.Plan
	arq    *sim.ARQConfig
}

// keyedPoint is one span-1 series point of one probe run.
type keyedPoint struct {
	key string
	p   series.Point
	n   int // measurement population of the run
}

// driver runs one protocol on one runtime the way every runtime of the
// program does: reliable initialization, then AdvanceRound + Step, with
// a reliable re-initialization after a tree repair or a failed step
// under loss or faults.
type driver struct {
	name    string
	rt      *sim.Runtime
	alg     protocol.Algorithm
	k       int
	faults  bool
	lossy   bool
	reinits int
	// stalled is set when a re-initialization failed under loss or
	// faults (a sink partition can starve it); the next round retries.
	stalled bool
	missed  int
}

func (d *driver) init() (int, error) {
	if p := d.rt.LossProb(); p > 0 {
		_ = d.rt.SetLossProb(0)
		defer func() { _ = d.rt.SetLossProb(p) }()
	}
	d.rt.SetFaultReliable(true)
	defer d.rt.SetFaultReliable(false)
	return d.alg.Init(d.rt, d.k)
}

// round advances the runtime and answers the next round, recording the
// calls into the runtime and the protocol as spans of tr.
func (d *driver) round(tr *tracer) (int, error) {
	sp := tr.begin("sim.advance")
	d.rt.AdvanceRound()
	tr.end(sp)
	if d.stalled || (d.faults && d.rt.ConsumeReinit()) {
		return d.reinit()
	}
	sp = tr.begin(d.name + ".step")
	q, err := d.alg.Step(d.rt)
	tr.end(sp)
	if err != nil && d.lossy {
		return d.reinit()
	}
	return q, err
}

func (d *driver) reinit() (int, error) {
	d.reinits++
	q, err := d.init()
	if d.stalled = err != nil && d.lossy; d.stalled {
		d.missed++
		return 0, nil
	}
	return q, err
}

// newDriver assembles a runtime on dep; mkTrace, when non-nil, builds
// the flight recorder from the runtime before faults attach, as the
// experiment engine does.
func newDriver(t probeTarget, dep *experiment.Deployment, name string, mkTrace func(*sim.Runtime) trace.Collector, po sim.PhaseObserver) (*driver, error) {
	factory, err := experiment.ResolveAlgorithm(name)
	if err != nil {
		return nil, err
	}
	rt, err := dep.NewRuntime(t.cfg)
	if err != nil {
		return nil, err
	}
	if mkTrace != nil {
		rt.SetTrace(mkTrace(rt))
	}
	if po != nil {
		rt.SetProf(po)
	}
	if t.faults != nil {
		arq := sim.DefaultARQ()
		if t.arq != nil {
			arq = *t.arq
		}
		if err := rt.SetFaults(t.faults, t.cfg.Seed^0xFA07, arq); err != nil {
			return nil, err
		}
	}
	return &driver{name: name, rt: rt, alg: factory(), k: t.cfg.K(), faults: t.faults != nil, lossy: t.cfg.LossProb > 0 || t.faults != nil}, nil
}

// countingCollector counts the flight recorder's events on their way
// to the series ingester.
type countingCollector struct {
	n    int
	next trace.Collector
}

func (c *countingCollector) Collect(e trace.Event) {
	c.n++
	c.next.Collect(e)
}

// The protocol probe alternates span-free and spanned passes of each
// algorithm, at least probeReps pairs and for at least probeMinTime of
// span-free rounds, to price the spans where they are densest: three
// per round.
const (
	probeReps    = 4
	probeMinTime = 100 * time.Millisecond
)

// passResult is one probe pass of one algorithm.
type passResult struct {
	d      *driver
	wall   time.Duration // the steady rounds' wall-clock time
	allocs float64       // heap objects per steady round
	bytes  float64       // heap bytes per steady round
}

// probePass runs one algorithm on a fresh runtime on dep for t.rounds
// rounds, with tr's spans around each call into the protocol (init,
// step) and the runtime (AdvanceRound, Oracle). On a loss-free,
// fault-free target every answer must be exact.
func probePass(res *result, t probeTarget, dep *experiment.Deployment, name string, tr *tracer) (passResult, error) {
	d, err := newDriver(t, dep, name, nil, nil)
	if err != nil {
		return passResult{}, err
	}
	sp := tr.begin(name + ".init")
	if _, err := d.init(); err != nil {
		return passResult{}, fmt.Errorf("probe %s init: %w", name, err)
	}
	tr.end(sp)
	exact := t.cfg.LossProb == 0 && t.faults == nil
	mem := newMemReader()
	m0 := mem.read()
	start := time.Now()
	for r := 1; r < t.rounds; r++ {
		q, err := d.round(tr)
		if err != nil {
			return passResult{}, fmt.Errorf("probe %s round %d: %w", name, r, err)
		}
		sp = tr.begin("sim.oracle")
		d.rt.Oracle(d.k)
		tr.end(sp)
		if exact {
			res.check(d.rt.RankErrorOf(d.k, q) == 0, "probe %s round %d: answer %d is not the rank-%d value", name, r, q, d.k)
		}
	}
	wall := time.Since(start)
	m1 := mem.read()
	steady := float64(t.rounds - 1)
	return passResult{d: d, wall: wall, allocs: float64(m1.objects-m0.objects) / steady, bytes: float64(m1.bytes-m0.bytes) / steady}, nil
}

// probeProtocols drives every probe algorithm on the target's run-0
// deployment. It alternates span-free and spanned passes; the spanned
// passes give the per-call timings and the allocation counts, and the
// median pair gives trace.overhead_frac. An observed pass then
// attaches the profiler, the flight recorder and a series ingester, and
// returns the point stream the observability probe replays.
func probeProtocols(ctx context.Context, e *env, res *result, t probeTarget) ([]keyedPoint, error) {
	dep, err := experiment.BuildDeployment(t.cfg, 0)
	if err != nil {
		return nil, err
	}
	var (
		totRounds            int
		st                   sim.Stats
		hottest              float64
		traceEvents, reinits int
		missed               int
		pairRatios           []float64 // span-free ÷ spanned time of each pair
	)
	var points []keyedPoint
	for _, name := range probeAlgorithms {
		var (
			bare, spanned passResult
			bareTime      time.Duration
		)
		for rep := 0; rep < probeReps || bareTime < probeMinTime; rep++ {
			order := []*tracer{untraced, e.tr}
			if rep%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, tr := range order {
				p, err := probePass(res, t, dep, name, tr)
				if err != nil {
					return nil, err
				}
				if tr == untraced {
					bare = p
				} else {
					spanned = p
				}
			}
			bareTime += bare.wall
			pairRatios = append(pairRatios, float64(bare.wall)/float64(spanned.wall))
		}
		res.set(name+".init_us", median(e.tr.durations(name+".init", time.Microsecond)))
		res.set(name+".allocs_per_round", spanned.allocs)
		res.note("%-6s allocs/round %.1f with spans, %.1f without", name, spanned.allocs, bare.allocs)
		res.set(name+".bytes_per_round", spanned.bytes)
		steps := e.tr.durations(name+".step", time.Microsecond)
		res.pct(name+".step_us_p50", steps, 0.5)
		res.pct(name+".step_us_p99", steps, 0.99)
		d := spanned.d
		s := d.rt.Stats()
		totRounds += t.rounds
		st.FramesSent += s.FramesSent
		st.PayloadsSent += s.PayloadsSent
		st.BitsSent += s.BitsSent
		st.ValuesSent += s.ValuesSent
		st.Convergecasts += s.Convergecasts
		st.Broadcasts += s.Broadcasts
		st.Retries += s.Retries
		st.AckFrames += s.AckFrames
		st.PayloadsLost += s.PayloadsLost
		reinits += d.reinits
		missed += d.missed
		if _, hot := d.rt.Ledger().MaxSpent(); hot/float64(t.rounds) > hottest {
			hottest = hot / float64(t.rounds)
		}

		// Observed pass: profiler, flight recorder, series ingest.
		rec := prof.NewRecorder()
		h := rec.Attach(ctx, name)
		store := series.New(series.DefaultCapacity)
		n := t.cfg.Measurements()
		cc := &countingCollector{}
		od, err := newDriver(t, dep, name, func(rt *sim.Runtime) trace.Collector {
			cc.next = store.IngestTotals(name, experiment.SeriesSampler(rt), func(k string, p series.Point) {
				points = append(points, keyedPoint{key: k, p: p, n: n})
			})
			return cc
		}, h)
		if err != nil {
			return nil, err
		}
		if _, err := od.init(); err != nil {
			return nil, fmt.Errorf("probe %s init: %w", name, err)
		}
		for r := 1; r < t.rounds; r++ {
			q, err := od.round(untraced)
			if err != nil {
				return nil, fmt.Errorf("probe %s round %d: %w", name, r, err)
			}
			if !od.stalled {
				od.rt.TraceDecision(od.k, q)
			}
		}
		od.rt.EndTrace()
		traceEvents += cc.n
		rep := rec.Report()
		var scopeCPU float64
		for _, ps := range rep.Scope(name) {
			scopeCPU += ps.CPUSeconds
		}
		for _, ps := range rep.Scope(name) {
			for _, ph := range probePhases[name] {
				if ps.Phase == ph && scopeCPU > 0 {
					res.set(name+".cpu_share."+ph, ps.CPUSeconds/scopeCPU)
				}
			}
		}
	}
	res.pct("sim.advance_us", e.tr.durations("sim.advance", time.Microsecond), 0.5)
	res.pct("sim.oracle_us", e.tr.durations("sim.oracle", time.Microsecond), 0.5)
	per := func(v int) float64 { return float64(v) / float64(totRounds) }
	res.set("sim.frames_per_round", per(st.FramesSent))
	res.set("sim.payloads_per_round", per(st.PayloadsSent))
	res.set("sim.bits_per_round", per(st.BitsSent))
	res.set("sim.values_per_round", per(st.ValuesSent))
	res.set("sim.convergecasts_per_round", per(st.Convergecasts))
	res.set("sim.broadcasts_per_round", per(st.Broadcasts))
	res.set("sim.retries_per_round", per(st.Retries))
	res.set("sim.ack_frames_per_round", per(st.AckFrames))
	res.set("sim.payloads_lost_per_round", per(st.PayloadsLost))
	res.set("energy.max_node_uj_per_round", hottest*1e6)
	res.set("trace.events_per_round", per(traceEvents))
	res.set("trace.overhead_frac", 1-median(pairRatios))
	res.note("trace: overhead from the median of %d span-free/spanned probe pass pairs", len(pairRatios))
	res.note("probe: %d algorithms x %d rounds on a %d-node deployment, %d protocol re-initializations, %d rounds unanswered",
		len(probeAlgorithms), t.rounds, dep.Topology().N(), reinits, missed)
	return points, nil
}

// bareAllocs runs one span-free probe pass and returns its heap
// allocations per round.
func bareAllocs(res *result, t probeTarget, dep *experiment.Deployment, name string) (float64, error) {
	p, err := probePass(res, t, dep, name, untraced)
	return p.allocs, err
}

// probeObservability feeds the probe's point stream through each
// observability layer's public entry point, one layer at a time, and
// reports the mean cost per call.
func probeObservability(e *env, res *result, t probeTarget, points []keyedPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("observability probe: empty point stream")
	}
	rules, err := alert.ParseRules(obsRules)
	if err != nil {
		return err
	}
	slos, err := slo.ParseSpecs(obsSLOs)
	if err != nil {
		return err
	}
	policies, err := adapt.Parse(obsPolicy)
	if err != nil {
		return err
	}
	const minCalls = 200000
	reps := minCalls/len(points) + 1
	timed := func(name string, pass func() error) (usPerCall, allocsPerCall float64, err error) {
		calls := reps * len(points)
		sp := e.tr.begin(name)
		m0 := e.mem.read()
		for i := 0; i < reps; i++ {
			if err := pass(); err != nil {
				return 0, 0, err
			}
		}
		m1 := e.mem.read()
		d := e.tr.end(sp)
		return float64(d) / float64(time.Microsecond) / float64(calls), float64(m1.objects-m0.objects) / float64(calls), nil
	}

	us, allocs, err := timed("series.add", func() error {
		store := series.New(series.DefaultCapacity)
		for _, kp := range points {
			store.Add(kp.key, kp.p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("series.add_us", us)
	res.set("series.allocs_per_add", allocs)

	var transitions int
	us, allocs, err = timed("alert.observe", func() error {
		eng, err := alert.NewEngine(rules...)
		if err != nil {
			return err
		}
		last := ""
		for _, kp := range points {
			if kp.key != last {
				eng.StartRun(kp.key)
				last = kp.key
			}
			eng.Observe(kp.key, kp.p)
		}
		transitions = len(eng.Log())
		return nil
	})
	if err != nil {
		return err
	}
	res.set("alert.observe_us", us)
	res.set("alert.allocs_per_observe", allocs)
	res.set("alert.transitions", float64(transitions))

	us, allocs, err = timed("slo.observe", func() error {
		tr, err := slo.NewTracker(slos...)
		if err != nil {
			return err
		}
		last := ""
		for i, kp := range points {
			if kp.key != last {
				tr.StartRun(kp.key)
				last = kp.key
			}
			tr.Observe(kp.key, slo.SampleFromPoint(kp.p, kp.n, int64(i+1)))
		}
		transitions = len(tr.Log())
		return nil
	})
	if err != nil {
		return err
	}
	res.set("slo.observe_us", us)
	res.set("slo.allocs_per_observe", allocs)
	res.set("slo.transitions", float64(transitions))

	var decisions int
	us, _, err = timed("adapt.observe", func() error {
		ctl, err := adapt.NewController(t.cfg.Energy.InitialBudget, policies...)
		if err != nil {
			return err
		}
		for _, kp := range points {
			ctl.Observe(kp.key, kp.p)
		}
		decisions = len(ctl.Decisions())
		return nil
	})
	if err != nil {
		return err
	}
	res.set("adapt.observe_us", us)
	res.set("adapt.decisions", float64(decisions))
	return nil
}
