package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsnq"
	"wsnq/internal/experiment"
	"wsnq/internal/serve"
)

// The serve workload hosts continuous queries on a wsnq.Server over its
// HTTP API: eight fleets of the wsnq-serve fleet shape (60 nodes, 80 m
// area, 25 m range), 256 queries across the six standard algorithms,
// registration over POST /queries, a closed-loop phase of back-to-back
// Advance calls, then an open-loop phase ticking every serveTick with
// in-process subscribers, one NDJSON stream, Zipf-skewed reads and a
// small per-tick churn.
//
// Only the fleet shape and the subscriber share follow wsnq-serve's
// defaults. The fleet and query counts, the tick, the arrival rates and
// the Zipf exponents are this benchmark's own choices, not measurements
// of a served load.
const (
	serveQueries   = 256
	serveFleets    = 8
	serveFleetSize = 60
	// serveTick is the open-loop period, well below saturation: one
	// Advance of 256 queries takes about 20 ms on a 2-CPU host.
	serveTick = 50 * time.Millisecond
	// Every serveSubEvery-th query has an in-process subscriber, the
	// share wsnq-serve's -load-subs defaults to.
	serveSubEvery = 10
	// Mean arrivals per open-loop tick: reads of GET /queries/{id} and
	// churn (POST a new query, DELETE an old one).
	serveReadsPerTick = 4
	serveChurnPerTick = 1
	// serveClosedShare of the run measures capacity, the rest latency.
	serveClosedShare = 0.5
)

var (
	serveAlgorithms = []string{"TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ"}
	// servePhis is the φ grid queries draw from, Zipf-skewed towards
	// its head, so some queries repeat another's (fleet, algorithm, φ).
	servePhis = []float64{0.5, 0.9, 0.1, 0.75, 0.25, 0.95, 0.05, 0.6}
)

const (
	serveRules  = "storm; excursion"
	serveSLO    = "rank; fresh; latency"
	serveAdapt  = "on storm(warn) do widen 1.5 cooldown 6"
	serveStream = "q0001" // the query streamed over NDJSON
)

// specGen draws query specs from the benchmark seed.
type specGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newSpecGen(seed int64) *specGen {
	rng := rand.New(rand.NewSource(seed))
	return &specGen{rng: rng, zipf: rand.NewZipf(rng, 1.3, 1, uint64(len(servePhis)-1))}
}

func (g *specGen) next(id string) serve.Spec {
	alg := serveAlgorithms[g.n%len(serveAlgorithms)]
	sp := serve.Spec{
		ID:        id,
		Client:    fmt.Sprintf("client%d", g.n%8),
		Fleet:     fmt.Sprintf("fleet%d", g.rng.Intn(serveFleets)),
		Phi:       servePhis[g.zipf.Uint64()],
		Algorithm: alg,
		Rules:     serveRules,
	}
	if g.n%2 == 0 {
		sp.SLO = serveSLO
	}
	if alg == "IQ" {
		sp.Adapt = serveAdapt
	}
	g.n++
	return sp
}

func fleetConfig(seed int64, i int) wsnq.Config {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes, cfg.Area, cfg.RadioRange = serveFleetSize, 80, 25
	cfg.Seed = derive(seed, fmt.Sprintf("fleet%d", i))
	return cfg
}

// limiter tracks a live count and its high-water mark.
type limiter struct{ cur, max atomic.Int64 }

func (l *limiter) inc() {
	n := l.cur.Add(1)
	for {
		m := l.max.Load()
		if n <= m || l.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (l *limiter) dec() { l.cur.Add(-1) }

// serveRig is one hosted server with its HTTP listener and clients.
type serveRig struct {
	srv     *wsnq.Server
	hs      *http.Server
	served  chan error
	base    string
	api     *http.Client // one keep-alive connection: registration, reads, churn
	stream  *http.Client // one connection: the NDJSON subscription
	conns   limiter
	viewLen []float64
}

func newServeRig(e *env) (*serveRig, error) {
	r := &serveRig{
		srv:    wsnq.NewServer(wsnq.ServerConfig{Workers: e.nproc}),
		served: make(chan error, 1),
		api:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		stream: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
	}
	for i := 0; i < serveFleets; i++ {
		if err := r.srv.AddFleet(fmt.Sprintf("fleet%d", i), fleetConfig(e.seed, i)); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler(), ConnState: func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			r.conns.inc()
		case http.StateClosed, http.StateHijacked:
			r.conns.dec()
		}
	}}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the listener and every connection, and waits for the
// server goroutine to return.
func (r *serveRig) close() error {
	r.api.CloseIdleConnections()
	r.stream.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// register POSTs one spec.
func (r *serveRig) register(sp serve.Spec) error {
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	resp, err := r.api.Post(r.base+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /queries %s: status %d", sp.ID, resp.StatusCode)
	}
	return nil
}

func (r *serveRig) deregister(id string) error {
	req, err := http.NewRequest(http.MethodDelete, r.base+"/queries/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := r.api.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE /queries/%s: status %d", id, resp.StatusCode)
	}
	return nil
}

// read GETs one query view and checks it.
func (r *serveRig) read(id string) error {
	resp, err := r.api.Get(r.base + "/queries/" + id)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /queries/%s: status %d", id, resp.StatusCode)
	}
	r.viewLen = append(r.viewLen, float64(len(body)))
	var v serve.QueryView
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	switch {
	case v.ID != id:
		return fmt.Errorf("GET /queries/%s returned query %q", id, v.ID)
	case v.Failed != "":
		return fmt.Errorf("query %s parked: %s", id, v.Failed)
	case v.Latest != nil && v.Latest.Quantile != v.Latest.Oracle:
		return fmt.Errorf("query %s round %d: answer %d, oracle %d", id, v.Latest.Round, v.Latest.Quantile, v.Latest.Oracle)
	}
	return nil
}

// setup builds a server, registers every spec over HTTP and runs the
// init round.
func serveSetup(e *env, specs []serve.Spec) (*serveRig, error) {
	r, err := newServeRig(e)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		if err := r.register(sp); err != nil {
			r.close()
			return nil, err
		}
	}
	if n := r.srv.Advance(); n != len(specs) {
		r.close()
		return nil, fmt.Errorf("init round stepped %d queries, want %d", n, len(specs))
	}
	return r, nil
}

// ndjsonLine is one update the NDJSON subscriber decoded.
type ndjsonLine struct {
	round int
	at    time.Time
	bytes int
	err   error
}

func checkUpdate(res *result, where string, u serve.Update) {
	res.check(u.Failed == "" && u.Quantile == u.Oracle,
		"serve: %s query %s round %d: answer %d, oracle %d %s", where, u.Query, u.Round, u.Quantile, u.Oracle, u.Failed)
}

func runServe(ctx context.Context, e *env, res *result) error {
	gen := newSpecGen(derive(e.seed, "specs"))
	specs := make([]serve.Spec, serveQueries)
	for i := range specs {
		specs[i] = gen.next(fmt.Sprintf("q%04d", i))
	}
	var load limiter // goroutines generating load
	load.inc()       // this one: the round clock

	// Set-up, repeated: fleets, registration over HTTP, init round.
	var rig *serveRig
	setup, err := setupMedian(3, func() error {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		var err error
		rig, err = serveSetup(e, specs)
		return err
	})
	if err != nil {
		return err
	}
	defer rig.close()
	res.set("setup_s", setup)
	srv := rig.srv

	// Subscribers: in-process channels on every serveSubEvery-th query,
	// and one NDJSON stream over HTTP.
	type sub struct {
		id string
		ch <-chan serve.Update
	}
	var subs []sub
	subscribed := map[string]bool{serveStream: true}
	for i := 0; i < len(specs); i += serveSubEvery {
		ch, cancel, err := srv.Subscribe(specs[i].ID)
		if err != nil {
			return err
		}
		defer cancel()
		subs = append(subs, sub{specs[i].ID, ch})
		subscribed[specs[i].ID] = true
	}
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, rig.base+"/queries/"+serveStream+"/subscribe", nil)
	if err != nil {
		return err
	}
	resp, err := rig.stream.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	// deliver drains the stream every round, and a round streams one
	// line, so a small buffer only absorbs scheduling delays. A reader
	// that blocked would make the server shed, which the Dropped check
	// catches.
	lines := make(chan ndjsonLine, 256)
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		defer close(lines)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		for sc.Scan() {
			var u serve.Update
			err := json.Unmarshal(sc.Bytes(), &u)
			if err == nil && (u.Failed != "" || u.Quantile != u.Oracle) {
				err = fmt.Errorf("query %s round %d: answer %d, oracle %d %s", u.Query, u.Round, u.Quantile, u.Oracle, u.Failed)
			}
			lines <- ndjsonLine{round: u.Round, at: time.Now(), bytes: len(sc.Bytes()) + 1, err: err}
		}
	}()
	streamRound := 0
	var lag, updBytes []float64

	// deliver waits until every subscriber holds the current round's
	// update and returns when the last one had it.
	deliver := func(advanced time.Time) time.Time {
		for _, s := range subs {
			select {
			case u, ok := <-s.ch:
				if res.check(ok, "serve: subscription of %s closed", s.id) {
					checkUpdate(res, "subscriber", u)
				}
			default:
				res.check(false, "serve: subscriber of %s has no update after Advance", s.id)
			}
		}
		streamRound++
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					res.check(false, "serve: NDJSON stream ended")
					return time.Now()
				}
				res.check(l.err == nil, "serve: NDJSON update: %v", l.err)
				lag = append(lag, ms(l.at.Sub(advanced)))
				updBytes = append(updBytes, float64(l.bytes))
				if l.round >= streamRound {
					res.check(l.round == streamRound, "serve: NDJSON round %d, want %d", l.round, streamRound)
					streamRound = l.round
					return l.at
				}
			case <-timeout.C:
				res.check(false, "serve: no NDJSON update for round %d", streamRound)
				return time.Now()
			}
		}
	}
	nodeRounds := func() float64 { return float64(srv.Queries() * serveFleetSize) }

	// Closed loop: back-to-back rounds measure capacity, as node-rounds
	// per CPU-second from Advance through delivery. The median round
	// sets it, so the rounds that also pay for a GC cycle do not.
	var updLat, lateness, tickCPU, roundRates []float64
	heap := startHeapSampler()
	start := time.Now()
	m0 := e.mem.read()
	closedDur := time.Duration(float64(e.seconds) * serveClosedShare)
	var closedRounds, closedBusy, totalNodeRounds float64
	closed := 0
	for ; closed < 20 || time.Since(start) < closedDur; closed++ {
		nr := nodeRounds()
		sp := e.tr.begin("serve.advance")
		t0, c0 := time.Now(), cpuTime()
		srv.Advance()
		t1 := time.Now()
		e.tr.end(sp)
		deliver(t1)
		roundRates = append(roundRates, nr/(cpuTime()-c0).Seconds())
		closedRounds += nr
		closedBusy += t1.Sub(t0).Seconds()
		totalNodeRounds += nr
	}

	// Open loop: a tick every serveTick; reads and churn on one
	// keep-alive connection from a second load goroutine. Every
	// operation is timed from its due time.
	openStart := time.Now().Add(serveTick)
	ticks := int((e.seconds - time.Since(start)) / serveTick)
	if ticks < 50 {
		ticks = 50
	}
	var (
		readLat, churnLat, opLate []float64
		opErrs                    []error
		loadWG                    sync.WaitGroup
	)
	// The load goroutine records its spans apart; they join the run's
	// spans once it has finished.
	ltr := &tracer{on: e.tr.on, t0: e.tr.t0}
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		load.inc()
		defer load.dec()
		rng := rand.New(rand.NewSource(derive(e.seed, "reads")))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(specs)-1))
		live := make([]string, len(specs)) // read targets, hottest first
		var churnable []int                // indexes of live the churn may replace
		for i, sp := range specs {
			live[i] = sp.ID
			if !subscribed[sp.ID] {
				churnable = append(churnable, i)
			}
		}
		churnGen := newSpecGen(derive(e.seed, "churn"))
		next := 0
		// Reads and churn arrive as a Poisson stream, like independent
		// clients, at serveReadsPerTick + serveChurnPerTick per tick on
		// average; every per-th arrival is a churn.
		arrivals := rand.New(rand.NewSource(derive(e.seed, "arrivals")))
		per := serveReadsPerTick + serveChurnPerTick
		mean := float64(serveTick) / float64(per)
		var at time.Duration
		for op := 0; ; op++ {
			at += time.Duration(arrivals.ExpFloat64() * mean)
			if at >= time.Duration(ticks)*serveTick {
				return
			}
			due := openStart.Add(at)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			opLate = append(opLate, ms(time.Since(due)))
			if op%per != per-1 {
				id := live[zipf.Uint64()]
				sp := ltr.begin("http.read")
				err := rig.read(id)
				ltr.end(sp)
				readLat = append(readLat, ms(time.Since(due)))
				opErrs = append(opErrs, err)
				continue
			}
			slot := churnable[next%len(churnable)]
			next++
			victim := live[slot]
			nsp := churnGen.next(fmt.Sprintf("c%05d", next))
			sp := ltr.begin("http.register")
			err := rig.register(nsp)
			ltr.end(sp)
			churnLat = append(churnLat, ms(time.Since(due)))
			if err == nil {
				err = rig.deregister(victim)
				live[slot] = nsp.ID
			}
			opErrs = append(opErrs, err)
		}
	}()
	// A tick's CPU is everything the process spends from its start to
	// the next tick's: the round, its delivery and the reads and churn
	// that arrive meanwhile.
	var tickStart time.Duration
	for tick := 0; tick <= ticks; tick++ {
		due := openStart.Add(time.Duration(tick) * serveTick)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := cpuTime()
		if tick > 0 {
			tickCPU = append(tickCPU, ms(now-tickStart))
		}
		if tick == ticks {
			break
		}
		tickStart = now
		lateness = append(lateness, ms(time.Since(due)))
		nr := nodeRounds()
		sp := e.tr.begin("serve.advance")
		srv.Advance()
		t1 := time.Now()
		e.tr.end(sp)
		done := deliver(t1)
		if t1.After(done) {
			done = t1
		}
		updLat = append(updLat, ms(done.Sub(due)))
		totalNodeRounds += nr
	}
	loadWG.Wait()
	m1 := e.mem.read()
	e.tr.spans = append(e.tr.spans, ltr.spans...)
	for _, err := range opErrs {
		res.check(err == nil, "serve: %v", err)
	}

	// Final checks: no query parked, no update shed, load bounded.
	resp2, err := rig.api.Get(rig.base + "/queries")
	if err != nil {
		return err
	}
	var all []struct {
		ID     string `json:"id"`
		Failed string `json:"failed"`
	}
	err = json.NewDecoder(resp2.Body).Decode(&all)
	resp2.Body.Close()
	if err != nil {
		return err
	}
	parked := 0
	for _, q := range all {
		if q.Failed != "" {
			parked++
		}
	}
	res.check(len(all) == serveQueries && parked == 0, "serve: %d queries, %d parked", len(all), parked)
	res.check(srv.Dropped() == 0, "serve: %d updates shed", srv.Dropped())
	res.check(int(load.max.Load()) <= e.nproc, "serve: %d load goroutines, nproc %d", load.max.Load(), e.nproc)
	res.check(int(rig.conns.max.Load()) <= e.nproc, "serve: %d HTTP connections, nproc %d", rig.conns.max.Load(), e.nproc)

	stopStream()
	readerDone.Wait()

	res.pct("node_rounds_per_cpu_s", roundRates, 0.5)
	res.pct("op_cpu_ms_p50", tickCPU, 0.5)
	res.pct("op_cpu_ms_p75", tickCPU, 0.75)
	res.set("allocs_per_node_round", float64(m1.objects-m0.objects)/totalNodeRounds)
	heapMetric(res, heap.stop())
	res.pct("http.register_ms_p50", churnLat, 0.5)
	res.pct("http.register_ms_p99", churnLat, 0.99)
	res.pct("http.read_ms_p50", readLat, 0.5)
	res.pct("http.read_ms_p99", readLat, 0.99)
	allLate := append(append([]float64(nil), lateness...), opLate...)
	res.pct("loadgen.late_p99_ms", allLate, 0.99)
	res.set("loadgen.samples", float64(len(allLate)))
	res.noteValue("node_rounds_per_s", "1/s", closedRounds/closedBusy, closed)
	for _, l := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"update_p50_ms", updLat, 0.5}, {"update_p99_ms", updLat, 0.99},
		{"register_p50_ms", churnLat, 0.5}, {"register_p99_ms", churnLat, 0.99},
		{"read_p50_ms", readLat, 0.5}, {"read_p99_ms", readLat, 0.99},
	} {
		res.noteValue(l.name, "ms", quantile(l.xs, l.q), len(l.xs))
	}
	res.note("serve: %d closed-loop and %d open-loop rounds (tick %v), %d subscribers + 1 NDJSON stream, max %d load goroutines, max %d HTTP connections",
		closed, ticks, serveTick, len(subs), load.max.Load(), rig.conns.max.Load())
	if !e.traced {
		return nil
	}
	gcMetrics(res, m0, m1)
	res.pct("serve.update_ms_p50", updLat, 0.5)
	res.pct("serve.update_ms_p99", updLat, 0.99)
	adv := e.tr.durations("serve.advance", time.Millisecond)
	res.pct("serve.advance_ms_p50", adv, 0.5)
	res.pct("serve.advance_ms_p99", adv, 0.99)
	res.set("serve.dropped_updates", float64(srv.Dropped()))
	seen := map[string]bool{}
	dups := 0
	for _, sp := range specs {
		k := fmt.Sprintf("%s/%s/%g", sp.Fleet, sp.Algorithm, sp.Phi)
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	res.set("serve.dup_spec_frac", float64(dups)/float64(len(specs)))
	res.pct("http.ndjson_lag_ms_p50", lag, 0.5)
	res.set("http.update_bytes", median(updBytes))
	res.set("http.view_bytes", median(rig.viewLen))

	// In-process registration and deregistration, without HTTP.
	extra := newSpecGen(derive(e.seed, "inproc"))
	var ids []string
	for i := 0; i < 200; i++ {
		sp := extra.next(fmt.Sprintf("x%04d", i))
		t := e.tr.begin("serve.register")
		id, err := srv.Register(wsnq.QuerySpec{ID: sp.ID, Client: sp.Client, Fleet: sp.Fleet, Phi: sp.Phi,
			Algorithm: wsnq.Algorithm(sp.Algorithm), AlertRules: sp.Rules, SLO: sp.SLO, Adapt: sp.Adapt})
		e.tr.end(t)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		t := e.tr.begin("serve.deregister")
		err := srv.Deregister(id)
		e.tr.end(t)
		if err != nil {
			return err
		}
	}
	res.set("serve.register_us_p50", median(e.tr.durations("serve.register", time.Microsecond)))
	res.set("serve.deregister_us_p50", median(e.tr.durations("serve.deregister", time.Microsecond)))

	fc := fleetProbeConfig(e.seed, 0)
	for i := 0; i < 7; i++ {
		sp := e.tr.begin("experiment.deployment")
		if _, err := experiment.BuildDeployment(fc, 0); err != nil {
			return err
		}
		e.tr.end(sp)
	}
	res.set("experiment.deployment_ms", median(e.tr.durations("experiment.deployment", time.Millisecond)))

	target := probeTarget{cfg: fc, rounds: 200}
	points, err := probeProtocols(ctx, e, res, target)
	if err != nil {
		return err
	}
	return probeObservability(e, res, target, points)
}

// fleetProbeConfig is fleet i's deployment as the experiment layer
// configures it (wsnq.DefaultConfig and experiment.Default agree on
// everything fleetConfig leaves unchanged).
func fleetProbeConfig(seed int64, i int) experiment.Config {
	pub := fleetConfig(seed, i)
	cfg := experiment.Default()
	cfg.Nodes, cfg.Area, cfg.RadioRange, cfg.Seed = pub.Nodes, pub.Area, pub.RadioRange, pub.Seed
	return cfg
}
