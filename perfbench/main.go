// Command wsnq-perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload against the wsnq layers,
// checks every output it produces, and prints the metrics named in
// BENCHMARK.json:
//
//	wsnq-perfbench --workload sweep|serve|chaos --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times the calls into each layer from this package's own code and
// prints the per-layer metrics. Human-readable lines (every metric of
// the workload with its unit and, for percentiles, its sample count)
// precede the last line, a JSON object {correct, attempted, failed,
// metrics}. perfbench/README.md defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the pinned digests and hashes belong to.
const defaultSeed = 1

// env is what every workload receives: its seed, how long to measure,
// the process's parallelism, and the span recorder (off unless
// --trace 1).
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	nproc   int
	tr      *tracer
	mem     *memReader
}

// derive maps the benchmark seed and a purpose tag to a positive,
// well-mixed seed, so every generated input (fleet seeds, φ draws,
// reader streams, scenario seed) depends on --seed and no two inputs
// share a stream.
func derive(seed int64, tag string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(tag) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h>>33) + 1
}

// result accumulates one run's metrics, operation counts and failed
// checks.
type result struct {
	attempted int
	failures  []string
	values    map[string]float64
	samples   map[string]int // sample count behind a percentile metric
	notes     []string       // extra human-readable report lines
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// pct sets name to the q-quantile of xs and records the sample count.
func (r *result) pct(name string, xs []float64, q float64) {
	r.values[name] = quantile(xs, q)
	r.samples[name] = len(xs)
}

// check counts one checked operation, and a failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteValue adds a report line for a measured value that is not one of
// the run's JSON metrics, with the sample count behind it.
func (r *result) noteValue(name, unit string, v float64, n int) {
	r.note("%-40s %14.6g %-6s (n=%d)", name, v, unit, n)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perSet holds one workload's samples grouped by seed set. Its
// statistics average the per-set quantiles, so a set whose inputs are
// costlier moves them by its share rather than by where it falls in a
// pooled ranking.
type perSet [][]float64

func (p perSet) add(set int, v float64) { p[set] = append(p[set], v) }

func (p perSet) quantile(q float64) float64 {
	var sum float64
	for _, xs := range p {
		sum += quantile(xs, q)
	}
	return sum / float64(len(p))
}

func (p perSet) n() int {
	n := 0
	for _, xs := range p {
		n += len(xs)
	}
	return n
}

// pctSets sets name to p's averaged q-quantile and records the sample
// count.
func (r *result) pctSets(name string, p perSet, q float64) {
	r.values[name] = p.quantile(q)
	r.samples[name] = p.n()
}

// noteSets adds p's averaged q-quantile as a report line.
func (r *result) noteSets(name, unit string, p perSet, q float64) {
	r.noteValue(name, unit, p.quantile(q), p.n())
}

// setupMedian runs setup at least reps times and for at least
// setupBudget, and returns the median CPU time of one set-up in seconds.
func setupMedian(reps int, setup func() error) (float64, error) {
	const setupBudget = 2 * time.Second
	var ds []float64
	begin := time.Now()
	for len(ds) < reps || time.Since(begin) < setupBudget {
		c0 := cpuTime()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, (cpuTime() - c0).Seconds())
	}
	return median(ds), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var workloads = map[string]func(context.Context, *env, *result) error{
	"sweep": runSweep,
	"serve": runServe,
	"chaos": runChaos,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: sweep, serve or chaos")
		seed     = flag.Int64("seed", defaultSeed, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for the span dump of traced runs")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnq-perfbench:", err)
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "wsnq-perfbench: need --workload sweep|serve|chaos, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, nproc: nproc, tr: newTracer(), mem: newMemReader()}
	e.tr.on = e.traced
	res := newResult()
	if err := fn(context.Background(), e, res); err != nil {
		fmt.Fprintf(os.Stderr, "wsnq-perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "wsnq-perfbench: writing spans:", err)
			return 1
		}
	}
	return emit(os.Stdout, spec, res, e.traced)
}

// emit prints the human-readable report and the result line. An
// end-to-end metric the workload did not produce is a benchmark bug; a
// per-layer metric it did not produce is a layer the workload does not
// exercise, reported as 0 and marked idle.
func emit(w *os.File, spec *benchSpec, res *result, traced bool) int {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		known[m.Name] = true
	}
	for name := range res.values {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "wsnq-perfbench: metric %q is not declared in BENCHMARK.json\n", name)
			return 1
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, m := range list {
		v, ok := res.values[m.Name]
		switch {
		case !ok && !traced:
			fmt.Fprintf(os.Stderr, "wsnq-perfbench: end-to-end metric %q not measured\n", m.Name)
			return 1
		case !ok:
			fmt.Fprintf(w, "%-40s %14s %-6s (idle on this workload)\n", m.Name, "0", m.Unit)
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Fprintf(os.Stderr, "wsnq-perfbench: metric %q is %v\n", m.Name, v)
			return 1
		default:
			line := fmt.Sprintf("%-40s %14.6g %-6s", m.Name, v, m.Unit)
			if n, ok := res.samples[m.Name]; ok {
				line += fmt.Sprintf(" (n=%d)", n)
			}
			fmt.Fprintln(w, line)
		}
		metrics[m.Name] = jm{Value: v, Unit: m.Unit}
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(len(res.failures)) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-6s (%d of %d checked operations)\n", "failed_frac", failedFrac, "ratio", len(res.failures), res.attempted)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnq-perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}
