package benchfmt

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func sample() File {
	return File{
		Date:      "2026-08-05",
		GoVersion: "go1.24",
		GOOS:      "linux",
		GOARCH:    "amd64",
		Results: []Result{
			{Name: "RoundIQ", NsPerOp: 1000, AllocsPerOp: 12, FramesPerRound: 40, EnergyPerRound: 2e-5},
			{Name: "RoundTAG", NsPerOp: 5000, AllocsPerOp: 80, FramesPerRound: 900},
			{Name: "EngineCompare", NsPerOp: 2e8},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := encode(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	f, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", f.Schema, SchemaVersion)
	}
	r, ok := f.Result("RoundIQ")
	if !ok || r.NsPerOp != 1000 || r.FramesPerRound != 40 {
		t.Errorf("RoundIQ = %+v, ok=%v", r, ok)
	}
	// encode sorts results by name for deterministic files.
	names := make([]string, len(f.Results))
	for i, r := range f.Results {
		names[i] = r.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("results not sorted: %v", names)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	for _, schema := range []string{"0", "4", "99"} {
		_, err := decode(strings.NewReader(`{"schema": ` + schema + `, "results": []}`))
		if err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("schema %s: error = %v", schema, err)
		}
	}
}

// TestRoundTripBase: a schema-3 session keeps each layered rung's base
// and omits it on bare paths.
func TestRoundTripBase(t *testing.T) {
	in := sample()
	in.Results = append(in.Results, Result{Name: "RoundIQSeries", NsPerOp: 1010, AllocsPerOp: 12, Base: "RoundIQ"})
	var buf bytes.Buffer
	if err := encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), `"base"`) != 1 {
		t.Errorf("want exactly one base key:\n%s", buf.String())
	}
	f, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != 3 {
		t.Errorf("schema = %d, want 3", f.Schema)
	}
	if r, ok := f.Result("RoundIQSeries"); !ok || r.Base != "RoundIQ" {
		t.Errorf("RoundIQSeries = %+v, ok=%v; want base RoundIQ", r, ok)
	}
	if r, _ := f.Result("RoundIQ"); r.Base != "" {
		t.Errorf("RoundIQ base = %q, want none", r.Base)
	}
}

func TestFilenameSortsChronologically(t *testing.T) {
	dates := []time.Time{
		time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC),
		time.Date(2025, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC),
	}
	names := make([]string, len(dates))
	for i, d := range dates {
		names[i] = Filename(d)
	}
	if names[0] != "BENCH_2026-08-05.json" {
		t.Fatalf("Filename = %q", names[0])
	}
	sort.Strings(names)
	want := []string{"BENCH_2025-12-31.json", "BENCH_2026-01-02.json", "BENCH_2026-08-05.json"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sorted names = %v, want %v", names, want)
		}
	}
}

// TestNextFreeSkipsTakenSessions: a day's first session gets the plain
// name and later ones the next free suffix letter, in name order,
// whatever other days' files the directory holds.
func TestNextFreeSkipsTakenSessions(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2026, 10, 19, 15, 0, 0, 0, time.UTC)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-10-18.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 3; i++ {
		path, err := NextFree(filepath.Join(dir, Filename(day)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, filepath.Base(path))
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"BENCH_2026-10-19.json", "BENCH_2026-10-19b.json", "BENCH_2026-10-19c.json"}
	if !slices.Equal(got, want) {
		t.Fatalf("successive names %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("names %v do not sort in session order", got)
	}
	listed, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last := filepath.Base(listed[len(listed)-1]); last != want[2] {
		t.Errorf("List's newest session is %s, want %s", last, want[2])
	}
}

func TestListSortsFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2026-08-05.json", "BENCH_2025-01-01.json", "other.json"} {
		if err := WriteFile(filepath.Join(dir, name), sample()); err != nil {
			t.Fatal(err)
		}
	}
	files, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("List = %v, want the two BENCH files", files)
	}
	if filepath.Base(files[0]) != "BENCH_2025-01-01.json" || filepath.Base(files[1]) != "BENCH_2026-08-05.json" {
		t.Errorf("List order = %v", files)
	}
}

// TestDecodeAcceptsSchema1 pins backward compatibility: the two
// committed 2026-08-05 sessions are schema 1 and must keep loading —
// without ceilings, which is what selects the gate's relative budget.
func TestDecodeAcceptsSchema1(t *testing.T) {
	f, err := decode(strings.NewReader(`{
		"schema": 1, "date": "2026-08-05",
		"results": [{"name": "RoundIQ", "ns_per_op": 1000, "bytes_per_op": 640, "allocs_per_op": 12}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Result("RoundIQ")
	if !ok || r.AllocsPerOp != 12 {
		t.Fatalf("RoundIQ = %+v, ok=%v", r, ok)
	}
	if r.AllocsCeiling != 0 {
		t.Errorf("schema-1 ceiling = %d, want 0", r.AllocsCeiling)
	}
}

// TestDecodeAcceptsSchema2: the 2026-08-07 sessions are schema 2 and
// keep loading with their ceilings and no bases.
func TestDecodeAcceptsSchema2(t *testing.T) {
	f, err := decode(strings.NewReader(`{
		"schema": 2, "date": "2026-08-07",
		"results": [{"name": "RoundIQSeries", "ns_per_op": 1000, "allocs_per_op": 12, "allocs_ceiling": 14}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Result("RoundIQSeries")
	if !ok || r.AllocsCeiling != 14 || r.Base != "" {
		t.Fatalf("RoundIQSeries = %+v, ok=%v; want ceiling 14, no base", r, ok)
	}
}

func TestAllocRegressions(t *testing.T) {
	old := sample()
	old.Results[0].AllocsCeiling = 13 // RoundIQ: explicit tight budget
	cur := sample()

	// Within both budgets: explicit 13 for IQ (12 allocs), relative
	// +10% for TAG (80 → 88 allowed).
	cur.Results[1].AllocsPerOp = 88
	if regs := AllocRegressions(old, cur, TrackedHotPaths(), 0.10); len(regs) != 0 {
		t.Fatalf("within budget flagged: %v", regs)
	}

	// IQ breaks its explicit ceiling, TAG breaks the relative one.
	cur.Results[0].AllocsPerOp = 14
	cur.Results[1].AllocsPerOp = 96 // +20%
	regs := AllocRegressions(old, cur, TrackedHotPaths(), 0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want RoundIQ and RoundTAG", regs)
	}
	if regs[0].Name != "RoundTAG" && regs[1].Name != "RoundTAG" {
		t.Errorf("RoundTAG not flagged: %v", regs)
	}
	for _, r := range regs {
		switch r.Name {
		case "RoundIQ":
			if r.Ceiling != 13 || r.NewAllocs != 14 {
				t.Errorf("RoundIQ = %+v, want ceiling 13 broken at 14", r)
			}
		case "RoundTAG":
			if r.Ceiling != 88 || r.Growth < 0.19 || r.Growth > 0.21 {
				t.Errorf("RoundTAG = %+v, want relative ceiling 88, +20%%", r)
			}
		default:
			t.Errorf("unexpected regression %+v", r)
		}
	}

	// Fewer allocations never fire.
	cur = sample()
	cur.Results[0].AllocsPerOp = 1
	if regs := AllocRegressions(old, cur, TrackedHotPaths(), 0.10); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

func TestUniformShift(t *testing.T) {
	base := File{Results: []Result{
		{Name: "RoundTAG", NsPerOp: 1000},
		{Name: "RoundPOS", NsPerOp: 2000},
		{Name: "RoundHBC", NsPerOp: 3000},
		{Name: "RoundIQ", NsPerOp: 4000},
	}}
	scale := func(f File, k float64) File {
		out := File{Results: append([]Result(nil), f.Results...)}
		for i := range out.Results {
			out.Results[i].NsPerOp *= k
		}
		return out
	}

	// Everything 40% slower together: a machine shift, not a code one.
	if ratio, uniform := UniformShift(base, scale(base, 1.4), TrackedHotPaths()); !uniform || ratio < 1.39 || ratio > 1.41 {
		t.Errorf("coherent +40%% shift: ratio %v uniform %v, want ~1.4 true", ratio, uniform)
	}
	// Everything 40% faster together is a shift too.
	if _, uniform := UniformShift(base, scale(base, 0.6), TrackedHotPaths()); !uniform {
		t.Error("coherent -40% shift not detected")
	}
	// Small coherent drift is not a shift.
	if _, uniform := UniformShift(base, scale(base, 1.1), TrackedHotPaths()); uniform {
		t.Error("+10% drift misread as a shift")
	}
	// One lopsided path breaks coherence: that is a code regression.
	lop := scale(base, 1.4)
	lop.Results[3].NsPerOp = base.Results[3].NsPerOp * 3
	if _, uniform := UniformShift(base, lop, TrackedHotPaths()); uniform {
		t.Error("lopsided slowdown misread as a uniform shift")
	}
	// Under four comparable paths there is no basis to call a shift.
	small := File{Results: base.Results[:3]}
	if _, uniform := UniformShift(small, scale(small, 1.4), TrackedHotPaths()); uniform {
		t.Error("3-path shift detected without enough evidence")
	}
}

func TestDiffTable(t *testing.T) {
	old := sample()
	cur := sample()
	cur.Results[0].NsPerOp = 1300 // IQ +30%
	cur.Results[0].AllocsPerOp = 24
	cur.Results = append(cur.Results, Result{Name: "RoundNew", NsPerOp: 7})

	rows := diffRows(old, cur)
	if len(rows) != 4 {
		t.Fatalf("Diff rows = %d, want 4 (union of names)", len(rows))
	}
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name }) {
		t.Error("rows not sorted by name")
	}
	var iq, added DiffRow
	for _, r := range rows {
		switch r.Name {
		case "RoundIQ":
			iq = r
		case "RoundNew":
			added = r
		}
	}
	if iq.NsDelta < 0.29 || iq.NsDelta > 0.31 || iq.AllocDelta != 1 {
		t.Errorf("RoundIQ row = %+v, want +30%% ns, +100%% allocs", iq)
	}
	if added.InOld || !added.InNew {
		t.Errorf("RoundNew row = %+v, want new-only", added)
	}

	var buf bytes.Buffer
	if err := FormatDiff(&buf, old, cur); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RoundIQ", "+30.0%", "RoundNew", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatDiff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "uniformly") {
		t.Errorf("one-path slowdown printed the uniform-shift note:\n%s", out)
	}
}

func TestRegressions(t *testing.T) {
	old := sample()
	cur := sample()
	// IQ 30% slower, TAG 10% slower (within budget), EngineCompare not tracked.
	cur.Results[0].NsPerOp = 1300
	cur.Results[1].NsPerOp = 5500
	cur.Results[2].NsPerOp = 9e9

	regs := Regressions(old, cur, TrackedHotPaths(), 0.15)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly RoundIQ", regs)
	}
	r := regs[0]
	if r.Name != "RoundIQ" || r.Slowdown < 0.29 || r.Slowdown > 0.31 {
		t.Errorf("regression = %+v, want RoundIQ +30%%", r)
	}
	if !strings.Contains(r.String(), "RoundIQ") || !strings.Contains(r.String(), "+30%") {
		t.Errorf("String() = %q", r.String())
	}

	// Speedups and missing benchmarks never fire.
	cur.Results[0].NsPerOp = 100
	if regs := Regressions(old, cur, TrackedHotPaths(), 0.15); len(regs) != 0 {
		t.Errorf("speedup flagged as regression: %v", regs)
	}
	if regs := Regressions(File{}, cur, TrackedHotPaths(), 0.15); len(regs) != 0 {
		t.Errorf("missing baseline flagged: %v", regs)
	}
}
