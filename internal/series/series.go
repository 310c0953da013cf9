// Package series is a fixed-capacity, per-key time-series store fed
// once per round by IngestTotals, which diffs a running simulation's
// cumulative counters at the flight recorder's round markers. Each key
// (one algorithm, or "cell/algorithm" inside a grid study) accumulates
// one Point per simulated round: frames, messages, joules, the
// decision's absolute rank error, refinement requests, the per-phase
// wire-bit anatomy (validation vs. refinement vs. raw-value shipping),
// and the running maximum of any single node's cumulative energy
// drain.
//
// Memory is bounded: when a key reaches the store's capacity, adjacent
// points are pairwise merged and the sampling stride doubles
// (1, 2, 4, ... rounds per point), so a million-round study still fits
// in the same footprint at progressively coarser resolution. Alert
// sinks always observe the raw span-1 points before any downsampling.
//
// The package is stdlib-only (plus the repo's own trace and mathx
// packages) and the Store is safe for concurrent use: ingesters append
// under the store mutex while HTTP handlers snapshot.
package series

import (
	"sort"
	"sync"

	"wsnq/internal/mathx"
	"wsnq/internal/trace"
)

// DefaultCapacity is the per-key point budget of stores built with
// New(0): enough for full resolution over short studies and ~2 KiB of
// points per key once striding kicks in.
const DefaultCapacity = 512

// minCapacity keeps the pairwise-merge downsampler well-formed.
const minCapacity = 8

// Point is one sample of a key's time series covering Span consecutive
// rounds starting at Round. Additive fields (frames, messages, joules,
// refines, retries, step latency, the phase bit buckets) sum over the
// span; RankError, Orphans, Deficit, and Staleness keep the worst
// round; HotJoules is the running per-node cumulative-drain maximum at
// the end of the span.
type Point struct {
	Round          int     `json:"round"`
	Span           int     `json:"span"`
	Frames         int     `json:"frames"`
	Messages       int     `json:"messages"`
	Joules         float64 `json:"joules"`
	RankError      int     `json:"rank_error"`
	Refines        int     `json:"refines"`
	Retries        int     `json:"retries"`
	Orphans        int     `json:"orphans"`
	ValidationBits int     `json:"validation_bits"`
	RefinementBits int     `json:"refinement_bits"`
	ShippingBits   int     `json:"shipping_bits"`
	OtherBits      int     `json:"other_bits"`
	HotJoules      float64 `json:"hot_joules"`

	// Fault-visibility and serve-layer columns, populated only when the
	// corresponding signal exists — omitempty keeps recordings and
	// golden digests from fault-free, unserved runs byte-identical.
	// Deficit (missing sensors plus lost subtree measurements) and
	// Staleness (rounds since full coverage) keep the worst round of
	// the span; StepMs sums the serve layer's wall-clock answer latency
	// over the span; SLOBurn and SLOSpend are end-of-span gauges from
	// an attached slo.Tracker (worst burn rate / budget spend across
	// the key's objectives).
	Deficit   int     `json:"deficit,omitempty"`
	Staleness int     `json:"staleness,omitempty"`
	StepMs    float64 `json:"step_ms,omitempty"`
	SLOBurn   float64 `json:"slo_burn,omitempty"`
	SLOSpend  float64 `json:"slo_spend,omitempty"`

	// Adapts counts the closed-loop controller actions applied during
	// the span (additive), populated only on runs with an attached
	// adaptation controller — omitempty keeps controller-free recordings
	// and golden digests byte-identical.
	Adapts int `json:"adapts,omitempty"`

	// Runtime health metrics (internal/prof), populated only when the
	// profiling layer is attached — omitempty keeps recordings and
	// golden digests from unprofiled runs byte-identical. AllocBytes
	// and AllocObjects are the process's heap allocations during the
	// span (additive); the rest are end-of-span gauges except
	// GCPauseMs, which keeps the worst p95 seen over the span.
	HeapLiveBytes int64   `json:"heap_live_bytes,omitempty"`
	Goroutines    int     `json:"goroutines,omitempty"`
	GCPauseMs     float64 `json:"gc_pause_ms,omitempty"`
	AllocBytes    int64   `json:"alloc_bytes,omitempty"`
	AllocObjects  int64   `json:"alloc_objects,omitempty"`
}

// Bits returns the total wire bits of the span (all phase buckets).
func (p Point) Bits() int {
	return p.ValidationBits + p.RefinementBits + p.ShippingBits + p.OtherBits
}

// span returns Span, never below one, so per-round rates are safe on
// zero-valued points.
func (p Point) span() float64 {
	if p.Span < 1 {
		return 1
	}
	return float64(p.Span)
}

// FramesPerRound returns the span-normalized frame rate.
func (p Point) FramesPerRound() float64 { return float64(p.Frames) / p.span() }

// JoulesPerRound returns the span-normalized energy rate.
func (p Point) JoulesPerRound() float64 { return p.Joules / p.span() }

// BitsPerRound returns the span-normalized total wire-bit rate.
func (p Point) BitsPerRound() float64 { return float64(p.Bits()) / p.span() }

// merge folds b (the later span) into a (the earlier): sums add, the
// rank error and orphan count keep the worst round, and HotJoules
// takes the later running maximum (cumulative drain is monotonic
// within a run).
func merge(a, b Point) Point {
	a.Span += b.Span
	a.Frames += b.Frames
	a.Messages += b.Messages
	a.Joules += b.Joules
	a.Refines += b.Refines
	a.Retries += b.Retries
	if b.Orphans > a.Orphans {
		a.Orphans = b.Orphans
	}
	a.ValidationBits += b.ValidationBits
	a.RefinementBits += b.RefinementBits
	a.ShippingBits += b.ShippingBits
	a.OtherBits += b.OtherBits
	if b.RankError > a.RankError {
		a.RankError = b.RankError
	}
	if b.Deficit > a.Deficit {
		a.Deficit = b.Deficit
	}
	if b.Staleness > a.Staleness {
		a.Staleness = b.Staleness
	}
	a.StepMs += b.StepMs
	a.SLOBurn = b.SLOBurn
	a.SLOSpend = b.SLOSpend
	a.Adapts += b.Adapts
	a.HotJoules = b.HotJoules
	a.AllocBytes += b.AllocBytes
	a.AllocObjects += b.AllocObjects
	a.HeapLiveBytes = b.HeapLiveBytes
	a.Goroutines = b.Goroutines
	if b.GCPauseMs > a.GCPauseMs {
		a.GCPauseMs = b.GCPauseMs
	}
	return a
}

// Sink observes every raw span-1 point of a key as it is ingested,
// before downsampling — the streaming hook the alert engine attaches
// to. Sinks run synchronously on the simulation hot path.
type Sink func(key string, p Point)

// Store holds one downsampled series per key.
type Store struct {
	mu      sync.Mutex
	cap     int
	reserve int // initial point capacity of a new key (see Reserve)
	m       map[string]*state

	// The key append last ingested and its state: a run streams one
	// key's rounds back to back, so most appends skip the map lookup.
	lastKey string
	last    *state
}

// state is one key's series under the store mutex.
type state struct {
	pts     []Point
	stride  int   // rounds per stored point
	pending Point // partial point until Span reaches stride
	rounds  int   // total rounds ingested (also the next round index)
}

// New builds a store retaining at most capacity points per key;
// capacity <= 0 selects DefaultCapacity and small values are clamped
// so the pairwise downsampler always has room to halve.
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < minCapacity {
		capacity = minCapacity
	}
	return &Store{cap: capacity, m: make(map[string]*state)}
}

// Capacity returns the per-key point budget.
func (s *Store) Capacity() int { return s.cap }

// Reserve sizes every key created from now on for the given number of
// rounds (at most the capacity), so a caller that knows a key's length
// up front, such as a replay, appends without regrowing it.
func (s *Store) Reserve(rounds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserve = min(max(rounds, 0), s.cap)
}

func (s *Store) state(key string) *state {
	st, ok := s.m[key]
	if !ok {
		st = &state{stride: 1, pts: make([]Point, 0, s.reserve)}
		s.m[key] = st
	}
	return st
}

// append ingests one raw span-1 point for key and returns the global
// round index it was assigned (monotonic per key across runs).
func (s *Store) append(key string, p Point) int {
	s.mu.Lock()
	st := s.last
	if st == nil || key != s.lastKey {
		st = s.state(key)
		s.lastKey, s.last = key, st
	}
	round := st.rounds
	st.rounds++
	p.Round = round
	p.Span = 1
	if st.pending.Span == 0 {
		st.pending = p
	} else {
		st.pending = merge(st.pending, p)
	}
	if st.pending.Span < st.stride {
		s.mu.Unlock()
		return round
	}
	st.pts = append(st.pts, st.pending)
	st.pending = Point{}
	if len(st.pts) >= s.cap {
		// Halve the resolution: merge adjacent pairs and double the
		// stride. An odd tail point becomes the new partial pending.
		half := st.pts[:0]
		n := len(st.pts)
		for i := 0; i+1 < n; i += 2 {
			half = append(half, merge(st.pts[i], st.pts[i+1]))
		}
		if n%2 == 1 {
			st.pending = st.pts[n-1]
		}
		st.pts = half
		st.stride *= 2
	}
	s.mu.Unlock()
	return round
}

// Add ingests one raw span-1 point for key exactly as IngestTotals
// does — the store assigns the monotonic per-key round index and
// Span=1, merges the point into the downsampling ring, and then hands
// the round-stamped point to each sink — and returns the stamped
// point. It is the replay path of the scenario layer: streaming a
// recording's points through Add reproduces, bit for bit, the store
// and sink states of the live run that produced them.
func (s *Store) Add(key string, p Point, sinks ...Sink) Point {
	p.Round = s.append(key, p)
	p.Span = 1
	for _, sink := range sinks {
		sink(key, p)
	}
	return p
}

// Rounds returns the total number of rounds ingested for key (0 for an
// unknown key) and the current sampling stride — rounds per stored
// point, doubling whenever the capacity bound forces a downsample.
func (s *Store) Rounds(key string) (rounds, stride int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	if !ok {
		return 0, 1
	}
	return st.rounds, st.stride
}

// Keys returns the store's keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Points returns a copy of key's stored points (the partial pending
// span included, so the freshest rounds are never invisible), oldest
// first. Nil for an unknown key.
func (s *Store) Points(key string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	if !ok {
		return nil
	}
	return st.points()
}

func (st *state) points() []Point {
	pts := make([]Point, 0, len(st.pts)+1)
	pts = append(pts, st.pts...)
	if st.pending.Span > 0 {
		pts = append(pts, st.pending)
	}
	return pts
}

// Snapshot is the exported state of one key's series.
type Snapshot struct {
	Stride int     `json:"stride"` // rounds per full point
	Rounds int     `json:"rounds"` // total rounds ingested
	Points []Point `json:"points"`
}

// Snapshot exports every key's series; the map is fresh and safe to
// encode while ingestion continues.
func (s *Store) Snapshot() map[string]Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Snapshot, len(s.m))
	for k, st := range s.m {
		out[k] = Snapshot{Stride: st.stride, Rounds: st.rounds, Points: st.points()}
	}
	return out
}

// Release exports every key's series like Snapshot, but hands over
// the stored points instead of copying them and leaves the store
// empty: for a caller that is done ingesting, such as a replay.
func (s *Store) Release() map[string]Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Snapshot, len(s.m))
	for k, st := range s.m {
		pts := st.pts
		if st.pending.Span > 0 {
			pts = append(pts, st.pending)
		}
		out[k] = Snapshot{Stride: st.stride, Rounds: st.rounds, Points: pts}
	}
	s.m = make(map[string]*state)
	s.lastKey, s.last = "", nil
	return out
}

// WindowStats summarizes f over a sliding window of stored points.
type WindowStats struct {
	Points int     `json:"points"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	P95    float64 `json:"p95"`
}

// Window evaluates f over the newest lastN stored points of key
// (lastN <= 0 means all) and returns their mean, max, and nearest-rank
// p95. Stored points may span multiple rounds once the series has
// downsampled; pass the span-normalized Point accessors
// (Point.JoulesPerRound et al.) when a per-round rate is wanted. The
// zero WindowStats is returned for an unknown or empty key.
func (s *Store) Window(key string, lastN int, f func(Point) float64) WindowStats {
	s.mu.Lock()
	st, ok := s.m[key]
	var pts []Point
	if ok {
		pts = st.points()
	}
	s.mu.Unlock()
	if len(pts) == 0 {
		return WindowStats{}
	}
	if lastN > 0 && len(pts) > lastN {
		pts = pts[len(pts)-lastN:]
	}
	vs := make([]float64, len(pts))
	sum := 0.0
	for i, p := range pts {
		vs[i] = f(p)
		sum += vs[i]
	}
	w := WindowStats{Points: len(vs), Mean: sum / float64(len(vs)), Max: vs[0]}
	for _, v := range vs[1:] {
		if v > w.Max {
			w.Max = v
		}
	}
	w.P95 = mathx.QuantileFloat64(vs, 0.95)
	return w
}

// Totals is one monotonic sample of a running simulation's cumulative
// traffic and energy counters, as a Sampler reads them. Diffing two
// samples yields the round's traffic and energy: the runtime books
// every transmission into exactly one phase bucket.
type Totals struct {
	Messages       int     // logical payload transmissions (per hop)
	Frames         int     // link-layer frames
	Retries        int     // ARQ retransmissions (fault mode)
	Adapts         int     // closed-loop controller actions applied
	ValidationBits int     // wire bits booked to validation and filter phases
	RefinementBits int     // wire bits booked to the refinement phase
	ShippingBits   int     // wire bits booked to collection and init phases
	TotalBits      int     // all wire bits (the remainder becomes OtherBits)
	Joules         float64 // network-wide cumulative consumption
	HotJoules      float64 // hottest single node's cumulative consumption

	// Serve-layer columns (zero outside the query service): StepMs is
	// the cumulative wall-clock answer latency — diffed per round like
	// the traffic counters — and the SLO pair are instantaneous gauges
	// read from the query's slo.Tracker after the round's evaluation.
	StepMs   float64 // cumulative answer latency, ms
	SLOBurn  float64 // worst SLO burn rate at sample time
	SLOSpend float64 // worst SLO budget spend at sample time

	// Runtime health counters (zero when the profiling layer is not
	// attached): cumulative process heap allocations — diffed per round
	// like the traffic counters — plus instantaneous gauges.
	AllocBytes    int64   // cumulative heap bytes allocated
	AllocObjects  int64   // cumulative heap objects allocated
	HeapLiveBytes int64   // live heap at sample time
	Goroutines    int     // live goroutines at sample time
	GCPauseMs     float64 // lifetime p95 stop-the-world pause, ms
}

// Sampler reads the live cumulative counters of a running simulation.
// It is called once per round, at round boundaries only.
type Sampler func() Totals

// IngestTotals returns a trace collector that records key's series:
// instead of counting every send and energy event, it samples the run's
// cumulative counters once per round and appends the difference as one
// Point on every round end, handing the raw span-1 point to each sink.
// Only the event kinds without a cumulative counter — the round's
// decision (rank error), refinement requests, and degraded-answer tags
// (orphans, deficit, staleness) — are read from the stream. The
// collector is a trace.RoundCollector, so a runtime it is attached to
// alone builds no per-hop events. One collector observes one
// sequential run; use separate collectors for separate runs.
func (s *Store) IngestTotals(key string, sample Sampler, sinks ...Sink) trace.Collector {
	return &totalsIngester{store: s, key: key, sample: sample, sinks: sinks}
}

// totalsIngester diffs per-round counter samples into points. The
// previous round's closing sample doubles as the next round's opening
// one: nothing runs between a round end and the following round start,
// so one Sampler call per round suffices.
type totalsIngester struct {
	store   *Store
	key     string
	sample  Sampler
	sinks   []Sink
	prev    Totals
	primed  bool
	open    bool
	rankErr int
	refines int
	orphans int
	deficit int
	stale   int
}

// SkipsHops makes the ingester a trace.RoundCollector: attached alone,
// the runtime builds no per-hop events for it.
func (in *totalsIngester) SkipsHops() {}

func (in *totalsIngester) Collect(e trace.Event) {
	// Behind a trace.Multi the per-hop events (send, receive, drop,
	// fragment, energy — the contiguous kinds between the round markers
	// and the decision — plus ARQ retransmissions) still arrive; one
	// predictable compare drops them, since they carry nothing the
	// counters don't already hold.
	if (e.Kind >= trace.KindSend && e.Kind <= trace.KindEnergy) || e.Kind == trace.KindRetry {
		return
	}
	switch e.Kind {
	case trace.KindRoundStart:
		if !in.primed {
			in.prev = in.sample()
			in.primed = true
		}
		in.rankErr, in.refines, in.orphans = 0, 0, 0
		in.deficit, in.stale = 0, 0
		in.open = true
	case trace.KindRoundEnd:
		if !in.open {
			return
		}
		in.open = false
		t := in.sample()
		p := Point{
			Span:           1,
			Messages:       t.Messages - in.prev.Messages,
			Frames:         t.Frames - in.prev.Frames,
			Joules:         t.Joules - in.prev.Joules,
			RankError:      in.rankErr,
			Refines:        in.refines,
			Retries:        t.Retries - in.prev.Retries,
			Adapts:         t.Adapts - in.prev.Adapts,
			Orphans:        in.orphans,
			Deficit:        in.deficit,
			Staleness:      in.stale,
			ValidationBits: t.ValidationBits - in.prev.ValidationBits,
			RefinementBits: t.RefinementBits - in.prev.RefinementBits,
			ShippingBits:   t.ShippingBits - in.prev.ShippingBits,
			StepMs:         t.StepMs - in.prev.StepMs,
			SLOBurn:        t.SLOBurn,
			SLOSpend:       t.SLOSpend,
			HotJoules:      t.HotJoules,
			AllocBytes:     t.AllocBytes - in.prev.AllocBytes,
			AllocObjects:   t.AllocObjects - in.prev.AllocObjects,
			HeapLiveBytes:  t.HeapLiveBytes,
			Goroutines:     t.Goroutines,
			GCPauseMs:      t.GCPauseMs,
		}
		p.OtherBits = (t.TotalBits - in.prev.TotalBits) -
			(p.ValidationBits + p.RefinementBits + p.ShippingBits)
		in.prev = t
		p.Round = in.store.append(in.key, p)
		for _, sink := range in.sinks {
			sink(in.key, p)
		}
	case trace.KindDecision:
		if e.Err > in.rankErr {
			in.rankErr = e.Err
		}
	case trace.KindRefine:
		in.refines++
	case trace.KindDegraded:
		if e.Values > in.orphans {
			in.orphans = e.Values
		}
		if e.Err > in.deficit {
			in.deficit = e.Err
		}
		if e.Aux > in.stale {
			in.stale = e.Aux
		}
	}
}
