package experiment

import (
	"fmt"
	"strings"

	"wsnq/internal/baseline"
	"wsnq/internal/core"
	"wsnq/internal/protocol"
)

// NamedFactory pairs an algorithm constructor with its display name.
type NamedFactory struct {
	Name string
	New  Factory
}

// StandardAlgorithms returns the §5.1.6 line-up in the paper's order:
// TAG, POS, LCLL-H, LCLL-S, HBC, IQ.
func StandardAlgorithms() []NamedFactory {
	return []NamedFactory{
		{"TAG", func() protocol.Algorithm { return baseline.NewTAG() }},
		{"POS", func() protocol.Algorithm { return baseline.NewPOS(baseline.DefaultPOSOptions()) }},
		{"LCLL-H", func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(false)) }},
		{"LCLL-S", func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(true)) }},
		{"HBC", func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
		{"IQ", func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
	}
}

// ContinuousAlgorithms returns the line-up without TAG (whose curves
// the paper cuts off) — handy for loss studies where TAG's collect-k
// semantics differ.
func ContinuousAlgorithms() []NamedFactory {
	all := StandardAlgorithms()
	return all[1:]
}

// Variant is one row of a sweep: a label and a configuration mutation.
type Variant struct {
	Label  string
	Mutate func(*Config)
}

// Table holds the results of a sweep: one row per variant, one column
// per algorithm.
type Table struct {
	Title      string
	RowLabel   string // what the variants vary (e.g. "|N|")
	Variants   []string
	Algorithms []string
	Cells      map[string]Metrics // key: variant + "\x00" + algorithm
}

func cellKey(variant, alg string) string { return variant + "\x00" + alg }

// Cell returns the metrics of one (variant, algorithm) pair.
func (t *Table) Cell(variant, alg string) (Metrics, bool) {
	m, ok := t.Cells[cellKey(variant, alg)]
	return m, ok
}

// MetricSelector extracts one scalar from a cell.
type MetricSelector struct {
	Name   string
	Unit   string
	Scale  float64 // raw value is multiplied by Scale before printing
	Format string  // fmt verb, e.g. "%.2f"
	Get    func(Metrics) float64
}

// Selectors for the paper's reported metrics.
var (
	// SelMaxEnergy is the maximum per-node energy consumption per round
	// in microjoules (Figures 6–10, upper panels).
	SelMaxEnergy = MetricSelector{
		Name: "max per-node energy", Unit: "µJ/round", Scale: 1e6, Format: "%.1f",
		Get: func(m Metrics) float64 { return m.MaxNodeEnergyPerRound },
	}
	// SelLifetime is the network lifetime in rounds (Figures 6–9, lower
	// panels).
	SelLifetime = MetricSelector{
		Name: "network lifetime", Unit: "rounds", Scale: 1, Format: "%.0f",
		Get: func(m Metrics) float64 { return m.LifetimeRounds },
	}
	// SelValues is transmitted values per round (reported in [20]).
	SelValues = MetricSelector{
		Name: "transmitted values", Unit: "values/round", Scale: 1, Format: "%.1f",
		Get: func(m Metrics) float64 { return m.ValuesPerRound },
	}
	// SelFrames is transmitted messages (frames) per round.
	SelFrames = MetricSelector{
		Name: "transmitted messages", Unit: "frames/round", Scale: 1, Format: "%.1f",
		Get: func(m Metrics) float64 { return m.FramesPerRound },
	}
	// SelRankError is the mean rank error (loss study).
	SelRankError = MetricSelector{
		Name: "mean rank error", Unit: "ranks", Scale: 1, Format: "%.2f",
		Get: func(m Metrics) float64 { return m.MeanRankError },
	}
	// SelGini is the energy-drain Gini coefficient (fairness study).
	SelGini = MetricSelector{
		Name: "energy Gini coefficient", Unit: "0..1", Scale: 1, Format: "%.3f",
		Get: func(m Metrics) float64 { return m.EnergyGini },
	}
)

// Format renders the table for one metric as aligned text, one variant
// per row and one algorithm per column.
func (t *Table) Format(sel MetricSelector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", t.Title, sel.Name, sel.Unit)
	w := 12
	fmt.Fprintf(&b, "%-*s", w, t.RowLabel)
	for _, a := range t.Algorithms {
		fmt.Fprintf(&b, "%*s", w, a)
	}
	b.WriteByte('\n')
	for _, v := range t.Variants {
		fmt.Fprintf(&b, "%-*s", w, v)
		for _, a := range t.Algorithms {
			if m, ok := t.Cell(v, a); ok {
				fmt.Fprintf(&b, "%*s", w, fmt.Sprintf(sel.Format, sel.Get(m)*sel.Scale))
			} else {
				fmt.Fprintf(&b, "%*s", w, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
