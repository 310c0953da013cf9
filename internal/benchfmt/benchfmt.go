// Package benchfmt defines the continuous-benchmarking interchange
// format: schema-versioned BENCH_<date>.json files holding one
// performance sample per benchmark (ns/op, allocs, plus the domain
// costs — frames and energy per simulated round), and the regression
// arithmetic that diffs two such files.
//
// The file name embeds an ISO date (BENCH_2026-08-05.json), so plain
// lexicographic order of the file names is chronological order; the
// newest two files are the "before" and "after" of the regression
// guard in the root package.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// SchemaVersion identifies the BENCH JSON layout. Version 2 adds the
// per-benchmark allocation ceiling (allocs_ceiling) the allocation-
// budget gate enforces; version 3 adds the base rung (base) a layered
// path is measured against. ReadFile also accepts versions 1 and 2 —
// they simply carry no ceilings or bases, so the gate falls back to a
// relative budget — and rejects anything newer, so the regression
// guard never compares measurements it does not understand.
const (
	SchemaVersion    = 3
	minSchemaVersion = 1
)

// FilePrefix and FileSuffix frame the benchmark file names.
const (
	FilePrefix = "BENCH_"
	FileSuffix = ".json"
)

// File is one benchmarking session: every tracked benchmark measured on
// one day on one machine.
type File struct {
	Schema    int      `json:"schema"`
	Date      string   `json:"date"` // ISO YYYY-MM-DD
	GoVersion string   `json:"go_version,omitempty"`
	GOOS      string   `json:"goos,omitempty"`
	GOARCH    string   `json:"goarch,omitempty"`
	Results   []Result `json:"results"`
}

// Result is one benchmark's sample. The domain costs are zero for
// benchmarks without a per-round interpretation (e.g. whole-study
// engine benchmarks).
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// AllocsCeiling is the allocation budget (allocs/op) this benchmark
	// must stay under in later sessions; 0 (and every schema-1 file)
	// means no explicit budget, and the gate falls back to a relative
	// one derived from AllocsPerOp. Schema 2.
	AllocsCeiling int64 `json:"allocs_ceiling,omitempty"`

	// Base names the rung this path adds a layer to (RoundIQSeries
	// rides on RoundIQ); empty for a bare path. The session measured
	// the two interleaved and held the layer to its overhead budget.
	// Schema 3.
	Base string `json:"base,omitempty"`

	FramesPerRound float64 `json:"frames_per_round,omitempty"`
	EnergyPerRound float64 `json:"max_node_j_per_round,omitempty"`
}

// TrackedHotPaths lists the benchmarks the regression guard watches:
// every rung of wsnq-bench's layer ladder but the whole-study
// EngineCompare. That is the per-round protocol costs of the §5.1.6
// line-up; the IQ round with a discarding flight recorder, with phase
// attribution on top of it, with series ingestion, and with a
// closed-loop controller; one hosted IQ query's serve step, bare and
// with objectives or policies attached; the query service's
// registration path; and the per-round SLO evaluation. A >15%
// slowdown of any of them fails the guard; benchmarks absent from
// either session are skipped, so old files without the newer paths
// still diff cleanly.
func TrackedHotPaths() []string {
	return []string{
		"RoundTAG", "RoundPOS", "RoundLCLLH", "RoundLCLLS", "RoundHBC", "RoundIQ",
		"RoundIQTrace", "RoundIQProf", "RoundIQSeries", "RoundIQAdapt",
		"ServeAdvance", "ServeAdvanceSLO", "ServeAdvanceAdapt",
		"ServeRegisterQuery",
		"ServeSLOEval",
	}
}

// Filename returns the canonical file name for a session on the given
// day, e.g. "BENCH_2026-08-05.json".
func Filename(t time.Time) string {
	return FilePrefix + t.Format("2006-01-02") + FileSuffix
}

// Result returns the sample of one benchmark by name.
func (f File) Result(name string) (Result, bool) {
	for _, r := range f.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// encode writes f as indented, deterministic JSON.
func encode(w io.Writer, f File) error {
	f.Schema = SchemaVersion
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// decode parses a BENCH file and validates its schema version.
func decode(r io.Reader) (File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return File{}, fmt.Errorf("benchfmt: %w", err)
	}
	if f.Schema < minSchemaVersion || f.Schema > SchemaVersion {
		return File{}, fmt.Errorf("benchfmt: schema %d, this build reads %d..%d", f.Schema, minSchemaVersion, SchemaVersion)
	}
	return f, nil
}

// ReadFile loads and validates one BENCH file.
func ReadFile(path string) (File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return File{}, err
	}
	defer fd.Close()
	f, err := decode(fd)
	if err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteFile writes one BENCH file.
func WriteFile(path string, f File) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(fd, f); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

// List returns the BENCH_*.json files of dir in chronological (file
// name) order.
func List(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*"+FileSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// Regression is one tracked benchmark that got slower than the
// threshold allows between two sessions.
type Regression struct {
	Name     string
	OldNs    float64
	NewNs    float64
	Slowdown float64 // fractional, e.g. 0.22 = 22% slower
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (+%.0f%%)",
		r.Name, r.OldNs, r.NewNs, 100*r.Slowdown)
}

// Regressions diffs the tracked benchmarks of two sessions and returns
// the ones whose ns/op grew by more than threshold (0.15 = 15%).
// Benchmarks absent from either session are skipped: the guard watches
// known hot paths, it does not enforce coverage.
func Regressions(old, new File, tracked []string, threshold float64) []Regression {
	var out []Regression
	for _, name := range tracked {
		o, okOld := old.Result(name)
		n, okNew := new.Result(name)
		if !okOld || !okNew || o.NsPerOp <= 0 {
			continue
		}
		slowdown := n.NsPerOp/o.NsPerOp - 1
		if slowdown > threshold {
			out = append(out, Regression{Name: name, OldNs: o.NsPerOp, NewNs: n.NsPerOp, Slowdown: slowdown})
		}
	}
	return out
}

// AllocRegression is one tracked benchmark whose allocations per op
// broke the allocation budget between two sessions.
type AllocRegression struct {
	Name      string
	OldAllocs int64
	NewAllocs int64
	Ceiling   int64   // the budget that was broken
	Growth    float64 // fractional allocs/op growth vs old
}

func (r AllocRegression) String() string {
	return fmt.Sprintf("%s: %d allocs/op -> %d allocs/op (+%.0f%%, ceiling %d)",
		r.Name, r.OldAllocs, r.NewAllocs, 100*r.Growth, r.Ceiling)
}

// AllocRegressions diffs the tracked benchmarks' allocation counts and
// returns the ones whose allocs/op exceed their budget: the old
// session's explicit AllocsCeiling when it carries one (schema 2), or
// the old count grown by threshold (0.10 = +10%) otherwise — so
// schema-1 history still gates relative growth. Allocations are
// deterministic per op (unlike ns/op), which is what makes a hard
// ceiling enforceable at all. Benchmarks absent from either session
// are skipped.
func AllocRegressions(old, new File, tracked []string, threshold float64) []AllocRegression {
	var out []AllocRegression
	for _, name := range tracked {
		o, okOld := old.Result(name)
		n, okNew := new.Result(name)
		if !okOld || !okNew || o.AllocsPerOp <= 0 {
			continue
		}
		ceiling := o.AllocsCeiling
		if ceiling <= 0 {
			ceiling = o.AllocsPerOp + int64(float64(o.AllocsPerOp)*threshold)
		}
		if n.AllocsPerOp > ceiling {
			out = append(out, AllocRegression{
				Name:      name,
				OldAllocs: o.AllocsPerOp,
				NewAllocs: n.AllocsPerOp,
				Ceiling:   ceiling,
				Growth:    float64(n.AllocsPerOp)/float64(o.AllocsPerOp) - 1,
			})
		}
	}
	return out
}

// Uniform-shift detection bounds: a session counts as uniformly
// shifted when at least UniformShiftMinPaths tracked paths are
// comparable, their median ns/op ratio moved at least 25% in either
// direction, and every ratio sits within ±15% of that median. Code
// regressions are lopsided — one or two paths move, the rest hold —
// whereas a machine or toolchain change moves everything together, so
// a coherent whole-suite shift is evidence about the environment, not
// the code.
const (
	UniformShiftMinPaths  = 4
	uniformShiftMagnitude = 0.25
	uniformShiftCoherence = 0.15
)

// UniformShift reports whether new's tracked ns/op moved uniformly
// against old: enough comparable paths, a median ratio outside
// [0.80, 1.25], and every path within ±15% of the median. The returned
// ratio is the median new/old ns/op ratio (1 = unchanged); uniform is
// false when fewer than UniformShiftMinPaths paths are comparable.
// Callers use it to skip — not fail — a timing comparison that would
// misattribute an environment change to the code.
func UniformShift(old, new File, tracked []string) (ratio float64, uniform bool) {
	var ratios []float64
	for _, name := range tracked {
		o, okOld := old.Result(name)
		n, okNew := new.Result(name)
		if !okOld || !okNew || o.NsPerOp <= 0 || n.NsPerOp <= 0 {
			continue
		}
		ratios = append(ratios, n.NsPerOp/o.NsPerOp)
	}
	if len(ratios) < UniformShiftMinPaths {
		return 1, false
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	// Outside [1/1.25, 1.25] — i.e. at least 25% faster or slower
	// across the board — counts as a shift.
	if median < 1+uniformShiftMagnitude && median > 1/(1+uniformShiftMagnitude) {
		return median, false
	}
	for _, r := range ratios {
		if r < median*(1-uniformShiftCoherence) || r > median*(1+uniformShiftCoherence) {
			return median, false
		}
	}
	return median, true
}
