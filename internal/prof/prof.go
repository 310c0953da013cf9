// Package prof is the continuous-profiling layer: it attributes CPU
// time and heap allocations to algorithm×phase buckets while the
// simulation runs, labels the running goroutine for the sampling
// profiler (/debug/pprof/profile), and samples the Go runtime's own
// health metrics (GC pauses, live heap, goroutines) for the series and
// telemetry layers.
//
// The attribution model rides on the phase vocabulary the cost
// accounting already defines (sim.Phase*): every call to
// sim.Runtime.SetPhase closes the open span and opens a new one, and a
// span's wall-clock time and allocation-counter deltas (from
// runtime/metrics, no stop-the-world inside a window; exact flushes
// only where a window opens and closes) are booked to the scope and
// phase it ran under. The simulation's round loop is single-goroutine
// and CPU-bound, so wall-clock time is an honest CPU proxy — and the
// experiment engine forces strictly sequential execution whenever a
// Recorder is attached, because the allocation counters are global to
// the process and only attributable when one run executes at a time.
//
// The package is stdlib-only and allocation-free on the switch path:
// the metrics sample slice is pre-allocated and the per-phase label
// contexts are cached after the first switch into each phase.
package prof

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// The two cumulative allocation counters every span diffs. Reading
// them via runtime/metrics costs no stop-the-world, unlike
// runtime.ReadMemStats.
const (
	allocBytesMetric   = "/gc/heap/allocs:bytes"
	allocObjectsMetric = "/gc/heap/allocs:objects"
)

// Key addresses one attribution bucket: a scope (algorithm name, or
// "fleet/query" in the serve layer) × a protocol phase.
type Key struct {
	Scope string `json:"scope"`
	Phase string `json:"phase"`
}

// bucket accumulates the spans booked to one key.
type bucket struct {
	cpu      time.Duration
	bytes    uint64
	objects  uint64
	switches int64
}

// Recorder accumulates attribution buckets. It is safe for concurrent
// use: handles flush spans under the recorder mutex, and Report may be
// called while a simulation is still switching phases (the live
// /profilez endpoint does).
type Recorder struct {
	mu      sync.Mutex
	buckets map[Key]*bucket
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{buckets: make(map[Key]*bucket)}
}

// Reset discards every bucket.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.buckets = make(map[Key]*bucket)
	r.mu.Unlock()
}

func (r *Recorder) add(scope, phase string, cpu time.Duration, bytes, objects uint64) {
	k := Key{Scope: scope, Phase: phase}
	r.mu.Lock()
	b := r.buckets[k]
	if b == nil {
		b = &bucket{}
		r.buckets[k] = b
	}
	b.cpu += cpu
	b.bytes += bytes
	b.objects += objects
	b.switches++
	r.mu.Unlock()
}

// Attach creates a handle that books one runtime's spans into the
// recorder under scope. The context is the label parent: when the
// caller already runs under pprof.Do job labels (the experiment
// engine's algorithm/run labels), passing that context makes every
// per-phase label set inherit them. Extra labels are key/value pairs
// added to every phase context (e.g. "fleet", name).
//
// The handle is not safe for concurrent use — like sim.Runtime, each
// goroutine owns its handle.
func (r *Recorder) Attach(ctx context.Context, scope string, labels ...string) *Handle {
	if ctx == nil {
		ctx = context.Background()
	}
	base := ctx
	if len(labels) > 0 {
		base = pprof.WithLabels(ctx, pprof.Labels(labels...))
	}
	return &Handle{
		rec:   r,
		scope: scope,
		base:  base,
		ctxs:  make(map[string]context.Context, 8),
		samples: []metrics.Sample{
			{Name: allocBytesMetric},
			{Name: allocObjectsMetric},
		},
	}
}

// Handle books one simulation run's phase spans. It implements the
// sim.PhaseObserver hook: SetPhase calls Switch, EndTrace calls Close.
type Handle struct {
	rec   *Recorder
	scope string
	base  context.Context
	ctxs  map[string]context.Context // phase -> cached labeled context

	phase    string
	open     bool
	start    time.Time
	bytes0   uint64
	objects0 uint64
	samples  []metrics.Sample
}

// read refreshes the pre-allocated sample slice and returns the two
// cumulative allocation counters. The runtime publishes them lazily:
// each P reports its small-object counts when it refills a span or at
// GC, so a span that allocates little may read zero while a later one
// is charged for it. exact first flushes every P's allocation cache
// (runtime.ReadMemStats, a brief stop-the-world), making the counters
// exact at that instant.
func (h *Handle) read(exact bool) (bytes, objects uint64) {
	if exact {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
	}
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64(), h.samples[1].Value.Uint64()
}

// Switch closes the open span (booking it to the previous phase) and
// opens a new one under phase, relabeling the goroutine so sampling
// profiles attribute the following work to it. An empty phase is
// normalized to "other", mirroring sim.Runtime.Phase. Opening a closed
// handle reads exact counters, so allocations made while it was closed
// are never charged to it; switches inside an open window stay cheap.
func (h *Handle) Switch(phase string) {
	if phase == "" {
		phase = "other"
	}
	now := time.Now()
	bytes, objects := h.read(!h.open)
	if h.open {
		h.rec.add(h.scope, h.phase, now.Sub(h.start), bytes-h.bytes0, objects-h.objects0)
	}
	h.phase, h.open = phase, true
	h.start, h.bytes0, h.objects0 = now, bytes, objects

	ctx, ok := h.ctxs[phase]
	if !ok {
		ctx = pprof.WithLabels(h.base, pprof.Labels("scope", h.scope, "phase", phase))
		h.ctxs[phase] = ctx
	}
	pprof.SetGoroutineLabels(ctx)
}

// Close flushes the open span and restores the goroutine labels the
// handle was attached under. It reads exact counters, so a window's
// allocations are booked in full when it closes, however few; what the
// runtime had not yet published goes to the closing span. Further
// Switch calls reopen attribution, so Close is safe to call more than
// once.
func (h *Handle) Close() {
	if h.open {
		now := time.Now()
		bytes, objects := h.read(true)
		h.rec.add(h.scope, h.phase, now.Sub(h.start), bytes-h.bytes0, objects-h.objects0)
		h.open = false
	}
	pprof.SetGoroutineLabels(h.base)
}

// PhaseStat is one attribution bucket of a Report, with its share of
// the report's CPU and allocation totals (0..1).
type PhaseStat struct {
	Scope        string  `json:"scope"`
	Phase        string  `json:"phase"`
	CPUSeconds   float64 `json:"cpu_seconds"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	Switches     int64   `json:"switches"`
	CPUShare     float64 `json:"cpu_share"`
	AllocShare   float64 `json:"alloc_share"`
}

// Report is a point-in-time attribution snapshot: every bucket, sorted
// by CPU time (descending; scope then phase break ties so the order is
// deterministic), plus the totals the shares are relative to.
type Report struct {
	Stats             []PhaseStat `json:"stats"`
	TotalCPUSeconds   float64     `json:"total_cpu_seconds"`
	TotalAllocBytes   uint64      `json:"total_alloc_bytes"`
	TotalAllocObjects uint64      `json:"total_alloc_objects"`
}

// Report snapshots the recorder's buckets.
func (r *Recorder) Report() Report {
	r.mu.Lock()
	var rep Report
	for k, b := range r.buckets {
		rep.Stats = append(rep.Stats, PhaseStat{
			Scope: k.Scope, Phase: k.Phase,
			CPUSeconds:   b.cpu.Seconds(),
			AllocBytes:   b.bytes,
			AllocObjects: b.objects,
			Switches:     b.switches,
		})
		rep.TotalCPUSeconds += b.cpu.Seconds()
		rep.TotalAllocBytes += b.bytes
		rep.TotalAllocObjects += b.objects
	}
	r.mu.Unlock()
	for i := range rep.Stats {
		if rep.TotalCPUSeconds > 0 {
			rep.Stats[i].CPUShare = rep.Stats[i].CPUSeconds / rep.TotalCPUSeconds
		}
		if rep.TotalAllocBytes > 0 {
			rep.Stats[i].AllocShare = float64(rep.Stats[i].AllocBytes) / float64(rep.TotalAllocBytes)
		}
	}
	sort.Slice(rep.Stats, func(i, j int) bool {
		a, b := rep.Stats[i], rep.Stats[j]
		if a.CPUSeconds != b.CPUSeconds {
			return a.CPUSeconds > b.CPUSeconds
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		return a.Phase < b.Phase
	})
	return rep
}

// Scope filters the report down to one scope's buckets, preserving the
// report order and the global shares.
func (rep Report) Scope(scope string) []PhaseStat {
	var out []PhaseStat
	for _, s := range rep.Stats {
		if s.Scope == scope {
			out = append(out, s)
		}
	}
	return out
}

// TopAllocPhase names the phase that allocated the most bytes within
// scope. ok is false when the scope has no buckets.
func (rep Report) TopAllocPhase(scope string) (PhaseStat, bool) {
	var best PhaseStat
	found := false
	for _, s := range rep.Stats {
		if s.Scope != scope {
			continue
		}
		if !found || s.AllocBytes > best.AllocBytes ||
			(s.AllocBytes == best.AllocBytes && s.Phase < best.Phase) {
			best, found = s, true
		}
	}
	return best, found
}

// WriteText renders the report as an aligned table, largest CPU
// consumer first.
func (rep Report) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scope\tphase\tcpu\tcpu%\talloc\talloc%\tobjects\tswitches")
	for _, s := range rep.Stats {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%s\t%.1f%%\t%d\t%d\n",
			s.Scope, s.Phase,
			time.Duration(s.CPUSeconds*float64(time.Second)).Round(time.Microsecond),
			100*s.CPUShare, sizeString(s.AllocBytes), 100*s.AllocShare,
			s.AllocObjects, s.Switches)
	}
	fmt.Fprintf(tw, "total\t\t%s\t\t%s\t\t%d\t\n",
		time.Duration(rep.TotalCPUSeconds*float64(time.Second)).Round(time.Microsecond),
		sizeString(rep.TotalAllocBytes), rep.TotalAllocObjects)
	return tw.Flush()
}

// sizeString renders a byte count with a binary unit.
func sizeString(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
