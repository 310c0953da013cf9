package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from this package:
// its name and start/end offsets from the tracer's origin. Every call
// is made from the benchmark's own code, so no span has a parent.
type span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Off, begin and end cost a branch; on, the span slice is preallocated
// so recording allocates nothing inside a measured loop.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// untraced is a tracer that is never switched on.
var untraced = &tracer{}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	if t.spans == nil {
		t.spans = make([]span, 0, 1<<17)
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// durations returns the lengths of every closed span named name, in
// units of unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime returns the CPU time, user and system, that every thread of
// the process has used. The kernel leaves out time the hypervisor
// steals from the virtual CPUs, so on a shared host it tracks the work
// done where wall-clock time also tracks the neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for an invalid argument.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is one reading of the Go runtime's cumulative counters.
type memSnap struct {
	objects  uint64  // heap objects allocated, tiny allocations included
	bytes    uint64  // heap bytes allocated
	live     uint64  // live heap after the last GC cycle
	cycles   uint64  // completed GC cycles
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available to the process
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// memReader reads memSnaps without allocating.
type memReader struct {
	samples []metrics.Sample
}

func newMemReader() *memReader {
	r := &memReader{samples: make([]metrics.Sample, len(memNames))}
	for i, n := range memNames {
		r.samples[i].Name = n
	}
	return r
}

func (r *memReader) read() memSnap {
	metrics.Read(r.samples)
	s := memSnap{
		objects:  r.samples[0].Value.Uint64() + r.samples[1].Value.Uint64(),
		bytes:    r.samples[2].Value.Uint64(),
		live:     r.samples[3].Value.Uint64(),
		cycles:   r.samples[4].Value.Uint64(),
		gcCPU:    r.samples[5].Value.Float64(),
		totalCPU: r.samples[6].Value.Float64(),
	}
	return s
}

// heapSampler records the live heap after each GC cycle. It keeps one
// sentinel object whose finalizer re-arms a fresh sentinel, so the
// runtime calls back once per completed cycle and nothing polls.
type heapSampler struct {
	mu      sync.Mutex
	stopped bool
	sample  []metrics.Sample
	live    []float64 // MiB, one per completed cycle
}

// gcSentinel is garbage as soon as it is armed; its finalizer runs after
// the cycle that found it.
type gcSentinel struct{ h *heapSampler }

func startHeapSampler() *heapSampler {
	h := &heapSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{h: h}, func(s *gcSentinel) { s.h.cycle() })
}

func (h *heapSampler) cycle() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	metrics.Read(h.sample)
	h.live = append(h.live, float64(h.sample[0].Value.Uint64())/(1<<20))
	h.arm()
}

// stop ends the sampling and returns the live heap of every cycle seen.
func (h *heapSampler) stop() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return h.live
}

// heapMetric sets heap_peak_mb from the per-cycle live heaps: their
// 90th percentile, since the maximum swings with whatever a cycle
// marked while the program kept allocating.
func heapMetric(res *result, live []float64) {
	res.pct("heap_peak_mb", live, 0.9)
	res.note("heap live MiB over %d GC cycles: p50 %.3f p90 %.3f max %.3f", len(live), quantile(live, 0.5), quantile(live, 0.9), quantile(live, 1))
}

// gcMetrics sets the Go runtime's per-layer metrics for the interval
// between two snapshots.
func gcMetrics(res *result, a, b memSnap) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		res.set("gc.cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	res.set("gc.cycles", float64(b.cycles-a.cycles))
}
