package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/experiment"
	"wsnq/internal/series"
	"wsnq/internal/slo"
	"wsnq/internal/trace"
)

// Verdict is one round's root decision for one series key: the
// reported quantile answer, the queried rank, and the oracle-checked
// rank error, paired with the store-assigned round index of the point
// that closed the round.
type Verdict struct {
	Key     string `json:"key"`
	Round   int    `json:"round"`
	Answer  int    `json:"answer"`
	K       int    `json:"k"`
	RankErr int    `json:"rank_err"`
}

// Outcome is the result of running (or replaying) a scenario: the full
// series store snapshot, the alert log, the per-round verdicts, and —
// when the scenario declares SLOs — the final budget statuses and the
// burn-rate transition log. Adapts holds the closed-loop controller's
// decision log when the scenario declares adapt policies; replay
// re-derives it from the recorded point stream (decisions are a pure
// function of the points each run's controller observed), so it is
// hash-covered like the rest. Metrics is populated on live runs only —
// replay reconstructs streams, not simulator aggregates — and is
// therefore excluded from Hash, which digests exactly the replayable
// state.
type Outcome struct {
	Scenario  *Scenario
	Replayed  bool
	Series    map[string]series.Snapshot
	Alerts    alert.Log
	Verdicts  []Verdict
	SLO       []slo.Status
	SLOEvents []slo.Event
	Adapts    []adapt.Decision
	Metrics   map[string]experiment.Metrics
}

// Hash digests the replay-invariant outcome state — scenario identity,
// every series snapshot in key order, the alert log, and the verdict
// stream — as a SHA-256 hex string. A live run and a replay of its
// recording produce the same hash; the golden tests pin these digests.
func (o *Outcome) Hash() string {
	if sum, ok := o.digest(true); ok {
		return sum
	}
	// A snapshot with a float json.Marshal rejects was partly hashed
	// before the float was met: hash again, a whole line at a time.
	sum, _ := o.digest(false)
	return sum
}

// digest computes Hash, spilling long series lines to the hash as they
// are written when spill is set. It reports false when that spoiled
// the digest.
func (o *Outcome) digest(spill bool) (string, bool) {
	d := digest{h: sha256.New()}
	d.b = make([]byte, 0, 2*digestChunk)
	if spill {
		d.spill = d.h
	}
	d.end(d.begin("scenario " + o.Scenario.Hash()))
	keys := make([]string, 0, len(o.Series))
	for k := range o.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := d.begin("series " + k + " ")
		snap := o.Series[k]
		d.snapshot(&snap)
		d.end(p)
	}
	for i := range o.Alerts {
		p := d.begin("alert ")
		d.alert(&o.Alerts[i])
		d.end(p)
	}
	for i := range o.Verdicts {
		p := d.begin("verdict ")
		d.verdict(&o.Verdicts[i])
		d.end(p)
	}
	// SLO lines appear only when the scenario declares objectives, so
	// the digests of SLO-free scenarios are unchanged.
	for i := range o.SLO {
		p := d.begin("slo ")
		d.sloStatus(&o.SLO[i])
		d.end(p)
	}
	for i := range o.SLOEvents {
		p := d.begin("sloevent ")
		d.sloEvent(&o.SLOEvents[i])
		d.end(p)
	}
	// Adapt lines likewise appear only when the scenario declares
	// closed-loop policies and they fired.
	for i := range o.Adapts {
		p := d.begin("adapt ")
		d.decision(&o.Adapts[i])
		d.end(p)
	}
	d.h.Write(d.b)
	return hex.EncodeToString(d.h.Sum(nil)), !d.spoiled
}

// Run executes the scenario live on the experiment engine and returns
// its outcome. Equivalent to Record with a nil writer.
func Run(ctx context.Context, s *Scenario) (*Outcome, error) {
	return Record(ctx, s, nil)
}

// Record executes the scenario live and, when w is non-nil, streams a
// replayable JSONL recording to it: a header embedding the canonical
// scenario text and its hash, then a run marker per grid job and one
// round record per ingested point. Replay reconstructs the identical
// Outcome from that stream without re-simulating.
func Record(ctx context.Context, s *Scenario, w io.Writer) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	algs, err := s.Factories()
	if err != nil {
		return nil, err
	}
	return record(ctx, s, algs, w)
}

// record runs the validated scenario live with algs, the protocol
// factories of s.Algorithms, in order.
func record(ctx context.Context, s *Scenario, algs []experiment.NamedFactory, w io.Writer) (*Outcome, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	store := series.New(s.Capacity)
	var eng *alert.Engine
	if len(s.Alerts) > 0 {
		eng, err = alert.NewEngine(s.Alerts...)
		if err != nil {
			return nil, err
		}
	}
	var tracker *slo.Tracker
	if len(s.SLOs) > 0 {
		if tracker, err = slo.NewTracker(s.SLOs...); err != nil {
			return nil, err
		}
	}
	// lines starts at 1 — the header — whether or not a recording is
	// written: exemplar offsets must come out identical for Run, Record,
	// and Replay so live and replayed SLO trajectories hash alike.
	rec := &recorder{sc: s, slo: tracker, lines: 1}
	if w != nil {
		rec.w, rec.enc = w, json.NewEncoder(w)
		rec.emit(fileRecord{Header: &Header{
			Format:   recordingFormat,
			Version:  recordingVersion,
			Scenario: s.String(),
			SHA256:   s.Hash(),
		}})
	}
	opts := experiment.Options{
		Series:    store,
		Alerts:    eng,
		PointSink: rec.point,
		Trace:     rec.traceFor,
		Faults:    s.Faults,
		ARQ:       s.ARQ,
	}
	var adapts []adapt.Decision
	if len(s.Adapt) > 0 {
		opts.Adapt = &experiment.AdaptOptions{
			Policies: s.Adapt,
			// The scenario hooks force sequential execution, so jobs
			// complete — and log their decisions — in grid order: the
			// same order Replay walks the run markers.
			Log: func(_ experiment.TraceJob, _ string, ds []adapt.Decision) {
				adapts = append(adapts, ds...)
			},
		}
	}

	metrics := make(map[string]experiment.Metrics)
	if s.Sweep != nil {
		table, err := experiment.SweepContext(ctx, cfg, s.Name, s.Sweep.Axis, s.Variants(), algs, opts)
		if err != nil {
			return nil, err
		}
		for _, label := range table.Variants {
			for _, a := range algs {
				if m, ok := table.Cell(label, a.Name); ok {
					metrics[label+"/"+a.Name] = m
				}
			}
		}
	} else {
		ms, err := experiment.CompareContext(ctx, cfg, algs, opts)
		if err != nil {
			return nil, err
		}
		for i, a := range algs {
			metrics[a.Name] = ms[i]
		}
	}
	if rec.err != nil {
		return nil, fmt.Errorf("scenario: recording %s: %w", s.Name, rec.err)
	}

	out := &Outcome{
		Scenario: s,
		Series:   store.Release(),
		Verdicts: rec.verdicts,
		Adapts:   adapts,
		Metrics:  metrics,
	}
	if eng != nil {
		out.Alerts = eng.Log()
	}
	if tracker != nil {
		out.SLO = tracker.Statuses()
		out.SLOEvents = tracker.Log()
	}
	return out, nil
}

// recorder couples the engine's two scenario hooks: Options.Trace
// announces each grid job (it emits the run marker and attaches no
// collector), and Options.PointSink hands it each round-stamped series
// point with the driver's verdict for the round the point closes. The
// engine runs strictly sequentially with either hook set, so the
// records come out in grid order.
type recorder struct {
	w        io.Writer     // nil when running without a recording
	enc      *json.Encoder // the header and run-marker lines, on w
	line     encoder       // a round-record line
	sc       *Scenario
	slo      *slo.Tracker // nil without slo declarations
	lines    int          // recording lines so far (header = 1), kept even unrecorded
	verdicts []Verdict
	err      error
}

func (r *recorder) emit(rec fileRecord) {
	if r.enc == nil || r.err != nil {
		return
	}
	r.err = r.enc.Encode(rec)
}

// traceFor is the Options.Trace hook: one run marker per grid job. It
// returns no collector, so the job's runtime carries only the engine's
// round-level series ingester.
func (r *recorder) traceFor(job experiment.TraceJob) trace.Collector {
	key := experiment.SeriesKeyFor(job, "")
	r.lines++
	r.emit(fileRecord{Run: &runMarker{Key: key}})
	if r.slo != nil {
		r.slo.StartRun(key)
	}
	return nil
}

// point is the Options.PointSink hook.
func (r *recorder) point(key string, p series.Point, d experiment.Verdict) {
	v := Verdict{Key: key, Round: p.Round, Answer: d.Answer, K: d.K, RankErr: d.RankErr}
	r.verdicts = append(r.verdicts, v)
	r.lines++
	if r.w != nil && r.err == nil {
		r.line.b = r.line.b[:0]
		r.line.round(&roundRecord{Key: key, Answer: v.Answer, K: v.K, RankErr: v.RankErr, Point: p})
		if r.err = r.line.err; r.err == nil {
			_, r.err = r.w.Write(r.line.b)
		}
	}
	if r.slo != nil {
		// The round record just written (or that a recording would hold)
		// lives at line r.lines — the exemplar offset replay seeks to.
		r.slo.Observe(key, slo.SampleFromPoint(p, r.sc.measurementsFor(key), int64(r.lines)))
	}
}
