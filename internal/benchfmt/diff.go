package benchfmt

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// DiffRow is one benchmark's old-vs-new comparison. A benchmark absent
// from one session has zero values on that side and a NaN-free Delta
// of 0; Present tells the two apart from a genuinely unchanged result.
type DiffRow struct {
	Name       string
	OldNs      float64
	NewNs      float64
	NsDelta    float64 // fractional, e.g. 0.22 = 22% slower; 0 if either side missing
	OldAllocs  int64
	NewAllocs  int64
	AllocDelta float64
	OldBytes   int64
	NewBytes   int64
	InOld      bool
	InNew      bool
}

// diffRows compares every benchmark appearing in either session, sorted by
// name — the full benchstat-style table behind `wsnq-bench -diff`.
func diffRows(old, new File) []DiffRow {
	names := map[string]bool{}
	for _, r := range old.Results {
		names[r.Name] = true
	}
	for _, r := range new.Results {
		names[r.Name] = true
	}
	rows := make([]DiffRow, 0, len(names))
	for name := range names {
		o, inOld := old.Result(name)
		n, inNew := new.Result(name)
		row := DiffRow{
			Name: name, InOld: inOld, InNew: inNew,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
			OldBytes: o.BytesPerOp, NewBytes: n.BytesPerOp,
		}
		if inOld && inNew {
			if o.NsPerOp > 0 {
				row.NsDelta = n.NsPerOp/o.NsPerOp - 1
			}
			if o.AllocsPerOp > 0 {
				row.AllocDelta = float64(n.AllocsPerOp)/float64(o.AllocsPerOp) - 1
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// FormatDiff renders the comparison as an aligned delta table, one row
// per benchmark in either session; benchmarks present on only one side
// show "-" on the other. A trailing note flags a uniform shift of the
// tracked hot paths, which usually means the sessions ran on different
// machines or toolchains rather than different code.
func FormatDiff(w io.Writer, old, new File) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\tdelta\t\n")
	for _, row := range diffRows(old, new) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			row.Name,
			numOr(row.InOld, "%.0f", row.OldNs), numOr(row.InNew, "%.0f", row.NewNs),
			deltaOr(row.InOld && row.InNew && row.OldNs > 0, row.NsDelta),
			numOr(row.InOld, "%d", row.OldAllocs), numOr(row.InNew, "%d", row.NewAllocs),
			deltaOr(row.InOld && row.InNew && row.OldAllocs > 0, row.AllocDelta))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if ratio, uniform := UniformShift(old, new, TrackedHotPaths()); uniform {
		fmt.Fprintf(w, "\nnote: tracked hot paths shifted uniformly (median ×%.2f) — machine or toolchain change, not a code regression\n", ratio)
	}
	return nil
}

func numOr(ok bool, format string, v any) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

func deltaOr(ok bool, delta float64) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta)
}
